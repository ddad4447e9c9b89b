//! FNV-1a 64-bit: the workspace's one content hash. Tiny,
//! dependency-free, and deterministic across runs and platforms
//! (unlike `DefaultHasher`, whose seed is randomized), so it backs the
//! columnar trace checksum, the batch memo keys and grid fingerprint,
//! and the serve round digests.

/// An incremental FNV-1a 64-bit hasher. Every multi-byte write hashes
/// the value's little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Hashes raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Hashes a `u64`.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Hashes a `usize` as a `u64`, so hashes agree across word sizes.
    #[inline]
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Hashes an `f64` by its bit pattern.
    #[inline]
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a 64-bit of a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_writes_hash_little_endian_bytes() {
        let mut words = Fnv::new();
        words.write_u64(7);
        words.write_usize(9);
        words.write_f64(1.5);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(words.finish(), fnv1a(&bytes));
    }
}
