//! SplitMix64, the one seeded mixer the mail stack draws from.
//!
//! The load generator's arrival and popularity streams, the chaos plan's
//! fault decisions and the retry policy's backoff jitter all hash through
//! [`splitmix64`], so every one of them is a pure function of its seed.
//! It lives here because this crate has no dependencies and every crate
//! that needs the mixer already depends on it.

/// The SplitMix64 increment: 2^64 divided by the golden ratio, rounded
/// to odd. Also a convenient odd multiplier for spreading small indices
/// (core numbers, substream ids) across the whole 64-bit space.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a stateless function: advance `z` by
/// [`GOLDEN_GAMMA`] and return the finalizer's avalanche of the result.
/// A generator whose state is `z` outputs `splitmix64(z)` and moves to
/// `z + GOLDEN_GAMMA`.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence_from_seed_zero() {
        // The first two outputs of the reference SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6E78_9E6A_A1B9_65F4);
    }
}
