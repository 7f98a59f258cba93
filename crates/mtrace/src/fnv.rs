//! FNV-1a (64-bit), the workspace's one string and fingerprint hash.
//!
//! The directory's bucket placement (simulated and host), the mail
//! topology's shard assignment, TESTGEN's solver-cache fingerprints and
//! the COMMUTER corpus fingerprint all hash through [`Fnv1a`]. Recorded
//! fingerprints depend on it bit for bit, so it must never change. It
//! lives here because this crate has no dependencies and every crate
//! that hashes already depends on it.

/// The FNV-1a 64-bit offset basis: the state before any input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a hash state. [`Fnv1a::bytes`] is the standard byte-at-a-time
/// FNV-1a; [`Fnv1a::word`] folds a whole `u64` in one xor-multiply step,
/// the variant the solver fingerprints use for integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh state at the offset basis.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word in a single step.
    #[inline]
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
        self
    }

    /// Folds every byte, one step each.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.word(byte as u64);
        }
        self
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Streams formatted text straight into the hash, so `write!(h, "{x:?}")`
/// hashes a value's `Debug` rendering without building the string.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of a byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn matches_the_reference_vectors() {
        // FNV-1a 64-bit test vectors from the reference implementation.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_word_step_is_one_xor_multiply() {
        let mut h = Fnv1a::new();
        h.word(0x1234_5678_9abc_def0);
        assert_eq!(
            h.finish(),
            (FNV_OFFSET ^ 0x1234_5678_9abc_def0).wrapping_mul(FNV_PRIME)
        );
        // Bytes below 256 fold the same as one-byte words.
        assert_eq!(Fnv1a::new().word(b'a' as u64).finish(), fnv1a(b"a"));
    }

    #[test]
    fn formatted_writes_hash_like_their_bytes() {
        let (word, quoted) = ("foo", "bar");
        let mut h = Fnv1a::new();
        write!(h, "{word}{quoted:?}").unwrap();
        assert_eq!(h.finish(), fnv1a(b"foo\"bar\""));
    }
}
