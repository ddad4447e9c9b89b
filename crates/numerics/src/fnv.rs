//! FNV-based content hashes: deterministic across runs and platforms
//! (unlike `DefaultHasher`, whose seed is randomized) and
//! dependency-free.
//!
//! - [`Fnv`] is the incremental FNV-1a 64-bit hasher behind the batch
//!   memo keys and grid fingerprint and the serve round digests.
//! - [`fnv_words`] is the bulk-buffer hash behind the columnar trace
//!   checksum: FNV-style multiplies over little-endian 64-bit words in
//!   four independent lanes, so a large buffer hashes at memory speed
//!   instead of one dependent multiply per byte.

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher. Every multi-byte write hashes
/// the value's little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Hashes raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
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

/// One FNV-style step over a whole word. The xor-shift folds the
/// product's high half into its low half: without it a difference in
/// bit 63 stays in bit 63 through every later multiply (the prime is
/// odd), so two top-bit flips would cancel.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(PRIME);
    h ^ (h >> 32)
}

/// The little-endian word in `bytes` (at most 8 of them), zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// The word-wise four-lane FNV hash of a byte buffer (the
/// `dcc-trace-col/2` checksum; `docs/trace.md` states it as
/// pseudo-code):
///
/// 1. lane `k` starts at the offset basis xor `k`, and word `k` of each
///    full 32-byte block is mixed into lane `k`;
/// 2. the four lanes are mixed in order into one value that starts at
///    the offset basis;
/// 3. then each leftover full word, then the last `len % 8` bytes
///    zero-padded into one word (when there are any), then the length.
///
/// Every step is a bijection of the running value, so a change confined
/// to one word always changes the hash.
pub fn fnv_words(bytes: &[u8]) -> u64 {
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }
    let mut h = lanes.iter().fold(OFFSET, |h, &lane| mix(h, lane));
    let mut words = blocks.remainder().chunks_exact(8);
    for word in words.by_ref() {
        h = mix(h, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = mix(h, le_word(tail));
    }
    mix(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write_bytes(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(write_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(write_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(write_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The vectors `docs/trace.md` lists: the bytes 1, 2, …, n. The
    /// lengths cover the empty input, a tail alone, a word, a word and
    /// a tail, a block's worth short by one, a block, and a block and a
    /// tail.
    #[test]
    fn fnv_words_matches_its_known_answers() {
        let vectors = [
            (0, 0x15fd_da0b_1a24_5b31),
            (1, 0x82b5_1add_e971_d958),
            (7, 0xbd36_9eb2_9958_8af2),
            (8, 0x0536_ad01_6958_80bc),
            (9, 0x3466_4866_3507_cb00),
            (31, 0x58c1_77be_3887_f924),
            (32, 0x738d_0efb_ca3d_213a),
            (33, 0x95d2_96d8_3031_77e4),
        ];
        for (len, want) in vectors {
            let bytes: Vec<u8> = (1..=len).collect();
            assert_eq!(fnv_words(&bytes), want, "length {len}");
        }
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
        assert_eq!(words.finish(), write_bytes(&bytes));
    }
}
