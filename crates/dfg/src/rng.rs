//! A tiny deterministic pseudo-random number generator.
//!
//! The test suites, the random-DFG generators, and the stress harnesses
//! all need reproducible randomness; this container has no network
//! access, so instead of an external crate the workspace uses this
//! self-contained SplitMix64 generator (Steele, Lea & Flood's
//! `splitmix64`, the seeding generator of the xoshiro family). It is
//! deterministic across platforms and plenty good for generating graphs
//! and shuffles — it is **not** cryptographic.

/// A deterministic SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use rotsched_dfg::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`0` when `bound == 0`).
    ///
    /// Uses the widening-multiply reduction; the modulo bias is below
    /// `bound / 2^64`, irrelevant for test-data generation.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform value in the inclusive range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    /// A uniform index in `0..len` (`0` when `len == 0`).
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against the top 53 bits as a uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// A streaming FNV-1a 64-bit hasher.
///
/// Used for cheap content fingerprints (schedule dedup keys, graph
/// structure fingerprints). Deterministic across runs and platforms, unlike
/// `std::collections::hash_map::RandomState`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.state ^= u64::from(byte);
        self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, value: u32) {
        for b in value.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// The current 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 1234567 from the splitmix64.c
        // reference implementation.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = SplitMix64::new(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..500 {
            let v = r.range_u32(2, 4);
            assert!((2..=4).contains(&v));
            seen_lo |= v == 2;
            seen_hi |= v == 4;
        }
        assert!(seen_lo && seen_hi, "range endpoints are reachable");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..1000).filter(|_| r.chance(0.5)).count();
        assert!((300..700).contains(&hits), "p=0.5 hit {hits}/1000 times");
    }

    #[test]
    fn fnv_matches_reference() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = Fnv64::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Fnv64::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }
}
