//! Small deterministic random number generators.
//!
//! The whole reproduction must be bit-reproducible across runs and
//! platforms: embedding-table contents, synthetic traces and sampled index
//! lists all come from these generators, seeded explicitly. We implement
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) (for seeding and
//! cheap streams) and [xoshiro256\*\*](https://prng.di.unimi.it/) (the
//! general-purpose generator) rather than depending on an external crate
//! whose stream might change between versions.

/// SplitMix64: a tiny, fast 64-bit generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256`], and for cheap decorrelated streams (e.g. hashing an id
/// into a cache set).
///
/// # Example
///
/// ```
/// use recssd_sim::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot stateless mix of a 64-bit value (a single SplitMix64 step).
///
/// Useful for turning structured ids into well-distributed hash values,
/// e.g. direct-mapped cache indexing.
#[inline]
pub fn mix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// xoshiro256\*\*: the workhorse deterministic generator.
///
/// # Example
///
/// ```
/// use recssd_sim::rng::Xoshiro256;
/// let mut rng = Xoshiro256::seed_from(7);
/// let x = rng.gen_range(0..10);
/// assert!(x < 10);
/// let f = rng.next_f64();
/// assert!((0.0..1.0).contains(&f));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator by expanding `seed` with SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[range.start, range.end)` using Lemire's
    /// nearly-divisionless method.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        let span = range
            .end
            .checked_sub(range.start)
            .filter(|&s| s > 0)
            .expect("gen_range called with an empty range");
        // Lemire rejection sampling for an unbiased draw.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                low = m as u64;
            }
        }
        range.start + (m >> 64) as u64
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed `f64` with the given rate parameter
    /// `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn next_exp(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        // Inverse transform; 1-U avoids ln(0).
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..(i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }

    /// Fills a byte slice with random data.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, from the reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::seed_from(123);
        let mut b = Xoshiro256::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = Xoshiro256::seed_from(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        Xoshiro256::seed_from(0).gen_range(3..3);
    }

    #[test]
    fn gen_bool_probability_roughly_holds() {
        let mut rng = Xoshiro256::seed_from(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn exponential_mean_roughly_holds() {
        let mut rng = Xoshiro256::seed_from(4);
        let lambda = 2.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_exp(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from(5);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut rng = Xoshiro256::seed_from(6);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut rng2 = Xoshiro256::seed_from(6);
        let mut buf2 = [0u8; 37];
        rng2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        // Hamming distance should be substantial for avalanche behaviour.
        assert!((a ^ b).count_ones() > 10);
    }
}
