//! The one content digest (FNV-1a 64, behind every pinned hash) and
//! the one deterministic generator (SplitMix64, behind every seeded
//! schedule), kept at the bottom of the dependency order.

use core::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 hasher: any split of the same bytes gives the
/// same digest, and `write!(h, "{v:?}")` digests a rendering unbuilt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    /// A hasher at the offset basis.
    fn default() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Folds `bytes` in, one octet per round.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a whole 64-bit word in as one round (the word-wise variant).
    #[inline]
    pub fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// What `write!` calls: hashing cannot fail, so nothing to unwrap.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = fmt::Write::write_fmt(self, args);
    }
}

impl fmt::Write for Fnv64 {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64 over a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// A tiny deterministic generator (SplitMix64). Not for statistics —
/// for replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The Weyl-sequence increment (the golden-ratio constant).
    pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(Self::GAMMA);
        mix64(self.0)
    }

    /// Uniform-ish value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The SplitMix64 output finalizer: a stateless 64-bit bit mixer.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn streaming_is_split_invariant_and_word_folds_are_one_round() {
        let mut h = Fnv64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        // Reference: the word-wise fold written out by hand.
        let (mut old, mut h) = (FNV_OFFSET, Fnv64::default());
        for w in [0u64, 1, u64::MAX, 0x1234_5678_9abc_def0] {
            old = (old ^ w).wrapping_mul(FNV_PRIME);
            h.write_word(w);
        }
        assert_eq!(h.finish(), old);
    }
}
