//! The benchmark's own input generator: PRNG, Zipf sampler, Poisson
//! gaps and the FNV-1a digest that pins what was generated.
//!
//! Nothing here comes from the program under test, so a change to
//! `recssd-trace` or `recssd_serving::LoadGen` cannot silently change the
//! load the benchmark offers.

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf-distributed row ids: rank `r` (1-based) is drawn with
/// probability ∝ `r^-s` by inverting an exact CDF table, then mapped to a
/// row through a permutation that scatters the hot rows over the table
/// (and so over shards and flash pages). Which rows are hot is part of
/// the workload (`map_seed`, the same for every run); which are drawn is
/// the run's (`seed`). `rotate` shifts the rank→row map, which is how
/// the drift workload moves the hot set.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_row: Vec<u32>,
    offset: usize,
    rng: Rng,
}

impl Zipf {
    pub fn new(rows: u64, exponent: f64, map_seed: u64, seed: u64) -> Self {
        let n = usize::try_from(rows).expect("table fits in memory");
        assert!(n > 0 && n <= u32::MAX as usize, "row count out of range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut map_rng = Rng::new(map_seed);
        let mut rank_to_row: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            rank_to_row.swap(i, map_rng.below(i as u64 + 1) as usize);
        }
        Zipf {
            cdf,
            rank_to_row,
            offset: 0,
            rng: Rng::new(seed),
        }
    }

    /// Shifts the rank→row map by `fraction` of the rows (cumulative).
    pub fn rotate(&mut self, fraction: f64) {
        let n = self.rank_to_row.len();
        self.offset = (self.offset + (fraction * n as f64) as usize) % n;
    }

    /// 0-based rank of the next draw (exposed for the slope test).
    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn next_row(&mut self) -> u64 {
        let rank = self.next_rank();
        let n = self.rank_to_row.len();
        self.rank_to_row[(rank + self.offset) % n] as u64
    }
}

/// Exponential inter-arrival gap of a Poisson process, in whole
/// nanoseconds (at least 1, so arrival times strictly increase).
pub fn poisson_gap_ns(rng: &mut Rng, rate_per_s: f64) -> u64 {
    let u = rng.next_f64();
    let gap = -(1.0 - u).ln() / rate_per_s * 1e9;
    (gap.round() as u64).max(1)
}

/// FNV-1a with 64-bit words in place of bytes: each word is xored in and
/// the state multiplied by the FNV prime once. An eighth of the multiplies
/// of the byte-wise form, which matters when 4 096 output floats are
/// folded per completion inside the timed section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    pub fn write_f32s(&mut self, xs: &[f32]) {
        for pair in xs.chunks(2) {
            let lo = pair[0].to_bits() as u64;
            let hi = pair.get(1).map_or(0, |x| x.to_bits() as u64);
            self.write_u64(lo | hi << 32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_rank_frequency_follows_the_exponent() {
        // log f(r) = -s log r + c: fit the slope over ranks 1..=32, where
        // every rank has thousands of samples.
        let s = 1.2;
        let mut z = Zipf::new(4096, s, 1, 7);
        let mut counts = vec![0u64; 4096];
        for _ in 0..400_000 {
            counts[z.next_rank()] += 1;
        }
        let pts: Vec<(f64, f64)> = (0..32)
            .map(|r| (((r + 1) as f64).ln(), (counts[r] as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy) = pts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
        let (sxx, sxy) = pts
            .iter()
            .fold((0.0, 0.0), |a, p| (a.0 + p.0 * p.0, a.1 + p.0 * p.1));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!((slope + s).abs() < 0.05, "slope {slope} vs -{s}");
    }

    #[test]
    fn zipf_rotation_moves_the_hot_row() {
        let mut z = Zipf::new(1000, 1.5, 1, 3);
        let hot_before = z.rank_to_row[0];
        z.rotate(0.35);
        assert_eq!(z.offset, 350);
        let hot_after = z.rank_to_row[z.offset];
        assert_ne!(hot_before, hot_after);
        assert!(z.next_row() < 1000);
    }

    #[test]
    fn poisson_mean_gap_matches_the_rate() {
        let mut rng = Rng::new(11);
        let rate = 20_000.0;
        let n = 200_000;
        let total: u64 = (0..n).map(|_| poisson_gap_ns(&mut rng, rate)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1e9 / rate).abs() < 0.01 * 1e9 / rate, "mean {mean}");
    }

    #[test]
    fn fnv_folds_words_in_order() {
        // One byte-sized word is one step of byte-wise FNV-1a, so the
        // published vector for "a" pins the constants.
        let mut f = Fnv::default();
        f.write_u64(b'a' as u64);
        assert_eq!(f.0, 0xAF63_DC4C_8601_EC8C);
        let fold = |ws: &[u64]| {
            let mut f = Fnv::default();
            ws.iter().for_each(|&w| f.write_u64(w));
            f.0
        };
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        let mut g = Fnv::default();
        g.write_f32s(&[1.0, 2.0, 3.0]);
        let words = [
            1.0f32.to_bits() as u64 | (2.0f32.to_bits() as u64) << 32,
            3.0f32.to_bits() as u64,
        ];
        assert_eq!(g.0, fold(&words));
    }
}
