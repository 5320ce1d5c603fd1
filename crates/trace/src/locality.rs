//! The DLRM-style locality-K trace generator.
//!
//! The generator is the paper's §5 stack-distance model: a fresh id with
//! probability `unique_prob`, otherwise the id at an exponentially
//! distributed depth of an LRU stack of the last `MAX_STACK` distinct
//! ids. The stack is an order-statistic structure (see `lru_stack`), so an
//! id costs O(log `MAX_STACK`) whether it is fresh or re-referenced.
//!
//! **The id sequence is part of the contract.** For a given `(rows,
//! unique_prob, mean_distance, seed)` it is fixed: it feeds the
//! benchmark's `input_digest`, the figure tables and every recorded
//! `sim_*` value. The order of the RNG draws, the `d % len` wrap of a
//! distance while the stack warms up, the move to the top of a fresh id
//! that was already on the stack and the truncation at `MAX_STACK` may
//! not change; `tests::matches_the_vec_stack_*` and the golden digests
//! below hold a change to that.

use recssd_sim::rng::Xoshiro256;

use crate::lru_stack::LruStack;

/// Distinct ids the re-reference stack remembers; older ones fall off.
const MAX_STACK: usize = 16_384;

/// The paper's locality knob: K = 0 is the most temporally local trace
/// (≈13 % unique accesses), K = 2 the least (≈72 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalityK {
    /// ≈13 % unique accesses; baseline 2 K-entry LRU hits ≈84 %.
    K0,
    /// ≈54 % unique accesses; baseline LRU hits ≈44 %.
    K1,
    /// ≈72 % unique accesses; baseline LRU hits ≈28 %.
    K2,
}

impl LocalityK {
    /// The fresh-id probability this K maps to (the complement is the
    /// re-reference probability).
    pub fn unique_prob(self) -> f64 {
        match self {
            LocalityK::K0 => 0.13,
            LocalityK::K1 => 0.54,
            LocalityK::K2 => 0.72,
        }
    }

    /// All three sweep points, in paper order.
    pub fn all() -> [LocalityK; 3] {
        [LocalityK::K0, LocalityK::K1, LocalityK::K2]
    }

    /// Numeric value for labels.
    pub fn value(self) -> u32 {
        match self {
            LocalityK::K0 => 0,
            LocalityK::K1 => 1,
            LocalityK::K2 => 2,
        }
    }
}

impl std::fmt::Display for LocalityK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K={}", self.value())
    }
}

/// Generates embedding-row ids with controlled temporal locality.
///
/// With probability `unique_prob` the next id is drawn uniformly from the
/// table; otherwise a previously used id is re-referenced at an
/// exponentially distributed LRU-stack distance ("likelihood distributions
/// for input embeddings across stack distances of previously requested
/// embedding vectors", §5).
///
/// [`next_id`](Self::next_id) is O(log n) in the stack's length (at most
/// 16 384 ids), and the sequence it emits for given constructor arguments
/// never changes from one version of this crate to the next.
///
/// # Example
///
/// ```
/// use recssd_trace::{unique_fraction, LocalityK, LocalityTrace};
/// let mut t = LocalityTrace::with_k(1_000_000, LocalityK::K1, 7);
/// let ids = t.take_ids(20_000);
/// let u = unique_fraction(&ids);
/// assert!((u - 0.54).abs() < 0.04, "unique fraction was {u}");
/// ```
#[derive(Debug)]
pub struct LocalityTrace {
    rows: u64,
    unique_prob: f64,
    mean_distance: f64,
    stack: LruStack,
    max_stack: usize,
    rng: Xoshiro256,
}

impl LocalityTrace {
    /// Default mean LRU-stack distance of re-references. Calibrated so a
    /// 2 K-entry fully associative LRU cache reproduces the paper's
    /// baseline hit rates (84 / 44 / 28 % for K = 0/1/2).
    pub const DEFAULT_MEAN_DISTANCE: f64 = 600.0;

    /// Creates a generator with one of the paper's K presets.
    pub fn with_k(rows: u64, k: LocalityK, seed: u64) -> Self {
        LocalityTrace::new(rows, k.unique_prob(), Self::DEFAULT_MEAN_DISTANCE, seed)
    }

    /// Creates a generator with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `unique_prob` is outside `[0, 1]`, or
    /// `mean_distance` is not positive.
    pub fn new(rows: u64, unique_prob: f64, mean_distance: f64, seed: u64) -> Self {
        assert!(rows > 0, "table must have rows");
        assert!(
            (0.0..=1.0).contains(&unique_prob),
            "unique probability must be in [0, 1]"
        );
        assert!(mean_distance > 0.0, "mean distance must be positive");
        LocalityTrace {
            rows,
            unique_prob,
            mean_distance,
            stack: LruStack::new(),
            max_stack: MAX_STACK,
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The next id in the trace.
    pub fn next_id(&mut self) -> u64 {
        let reuse = !self.stack.is_empty() && !self.rng.gen_bool(self.unique_prob);
        if reuse {
            // Wrap distances into the live stack so the re-reference
            // probability holds even while the stack is still warming up
            // (beyond warm-up the wrap is a ~e^-27 tail event).
            let d = self.rng.next_exp(1.0 / self.mean_distance) as usize % self.stack.len();
            return self.stack.touch_depth(d);
        }
        let id = self.rng.gen_range(0..self.rows);
        self.stack.touch_id(id);
        if self.stack.len() > self.max_stack {
            self.stack.drop_oldest();
        }
        id
    }

    /// Draws `n` ids.
    pub fn take_ids(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_id()).collect()
    }

    /// Number of table rows ids are drawn from.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unique_fraction;
    use recssd_sim::LruCache;

    #[test]
    fn unique_fractions_match_paper_calibration() {
        // §5: K = 0, 1, 2 → 13 %, 54 %, 72 % unique accesses.
        for (k, want) in [
            (LocalityK::K0, 0.13),
            (LocalityK::K1, 0.54),
            (LocalityK::K2, 0.72),
        ] {
            let mut t = LocalityTrace::with_k(1_000_000, k, 42);
            let ids = t.take_ids(30_000);
            let u = unique_fraction(&ids);
            assert!(
                (u - want).abs() < 0.04,
                "{k}: unique fraction {u} (want ≈{want})"
            );
        }
    }

    #[test]
    fn lru_2k_hit_rates_match_figure_10_baseline() {
        // Fig. 10: "the baseline LRU cache hitrates always follow the
        // inverse of the locality distribution, with 84%, 44%, and 28%".
        for (k, want) in [
            (LocalityK::K0, 0.84),
            (LocalityK::K1, 0.44),
            (LocalityK::K2, 0.28),
        ] {
            let mut t = LocalityTrace::with_k(1_000_000, k, 1);
            let mut cache = LruCache::new(2048);
            for _ in 0..60_000 {
                let id = t.next_id();
                if cache.get(&id).is_none() {
                    cache.insert(id, ());
                }
            }
            let rate = cache.stats().hit_rate();
            assert!(
                (rate - want).abs() < 0.05,
                "{k}: LRU hit rate {rate:.3} (want ≈{want})"
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let mut a = LocalityTrace::with_k(1000, LocalityK::K1, 5);
        let mut b = LocalityTrace::with_k(1000, LocalityK::K1, 5);
        assert_eq!(a.take_ids(500), b.take_ids(500));
        let mut c = LocalityTrace::with_k(1000, LocalityK::K1, 6);
        assert_ne!(a.take_ids(500), c.take_ids(500));
    }

    #[test]
    fn ids_stay_in_range() {
        let rows = 777;
        let mut t = LocalityTrace::with_k(rows, LocalityK::K2, 3);
        assert!(t.take_ids(5_000).iter().all(|&id| id < rows));
        assert_eq!(t.rows(), rows);
    }

    #[test]
    fn zero_unique_prob_reuses_heavily() {
        let mut t = LocalityTrace::new(1_000_000, 0.0, 10.0, 9);
        let ids = t.take_ids(10_000);
        assert!(
            unique_fraction(&ids) < 0.02,
            "all-reuse trace must repeat ids"
        );
    }

    #[test]
    fn full_unique_prob_is_nearly_uniform() {
        let mut t = LocalityTrace::new(u64::MAX, 1.0, 10.0, 9);
        let ids = t.take_ids(10_000);
        assert!(unique_fraction(&ids) > 0.999);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bad_probability_panics() {
        LocalityTrace::new(10, 1.5, 10.0, 0);
    }

    /// The generator as it was before the indexed stack, line for line:
    /// the reference the sequence contract is checked against.
    struct VecStackTrace {
        rows: u64,
        unique_prob: f64,
        mean_distance: f64,
        stack: Vec<u64>,
        max_stack: usize,
        rng: Xoshiro256,
    }

    impl VecStackTrace {
        fn next_id(&mut self) -> u64 {
            let reuse = !self.stack.is_empty() && !self.rng.gen_bool(self.unique_prob);
            if reuse {
                let d = self.rng.next_exp(1.0 / self.mean_distance) as usize % self.stack.len();
                let id = self.stack.remove(d);
                self.stack.insert(0, id);
                return id;
            }
            let id = self.rng.gen_range(0..self.rows);
            if let Some(pos) = self.stack.iter().position(|&x| x == id) {
                self.stack.remove(pos);
            }
            self.stack.insert(0, id);
            self.stack.truncate(self.max_stack);
            id
        }
    }

    /// Draws `n` ids from both generators and compares them one by one.
    fn assert_matches_vec_stack(
        (rows, unique_prob, mean_distance, seed): (u64, f64, f64, u64),
        max_stack: usize,
        n: usize,
    ) {
        let mut new = LocalityTrace::new(rows, unique_prob, mean_distance, seed);
        new.max_stack = max_stack;
        let mut old = VecStackTrace {
            rows,
            unique_prob,
            mean_distance,
            stack: Vec::new(),
            max_stack,
            rng: Xoshiro256::seed_from(seed),
        };
        for i in 0..n {
            assert_eq!(
                new.next_id(),
                old.next_id(),
                "id {i} of rows={rows} p={unique_prob} mean={mean_distance} seed={seed} max={max_stack}"
            );
        }
    }

    const UNIQUE_PROBS: [f64; 4] = [0.0, 0.02, 0.54, 1.0];

    proptest::proptest! {
        /// Small stacks: 6 000 ids renumber a stack of at most 300 ids tens
        /// of times and truncate it on most fresh ids; `rows` from 2 to
        /// 2^40 makes a fresh id land on the stack always, sometimes, never.
        #[test]
        fn matches_the_vec_stack_op_by_op(
            p in 0usize..4,
            rows_log2 in 1u32..41,
            extra_rows in 0u64..1_000,
            mean_distance in 1u32..700,
            max_stack in 1usize..300,
            seed in 0u64..u64::MAX,
        ) {
            let rows = (1u64 << rows_log2) + extra_rows % (1 << rows_log2);
            let params = (rows, UNIQUE_PROBS[p], mean_distance as f64, seed);
            assert_matches_vec_stack(params, max_stack, 6_000);
        }
    }

    /// The real 16 384-id stack: 50 000 ids at `unique_prob` 0.54 and 1
    /// fill it, truncate it thousands of times and renumber it at full
    /// size (every 16 384 touches) at least twice.
    #[test]
    fn matches_the_vec_stack_at_full_size() {
        for (i, unique_prob) in UNIQUE_PROBS.into_iter().enumerate() {
            for rows in [2, 20_000, 1 << 40] {
                let params = (rows, unique_prob, 600.0, 31 * i as u64 + rows);
                assert_matches_vec_stack(params, MAX_STACK, 50_000);
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `ids`.
    fn fnv1a(ids: &[u64]) -> u64 {
        ids.iter()
            .flat_map(|id| id.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Digests of `take_ids(50_000)` recorded from the `Vec`-stack
    /// generator (the commit before the indexed stack).
    #[test]
    fn golden_sequences_are_unchanged() {
        for (rows, unique_prob, mean_distance, seed, want) in [
            (1_000_000, 0.54, 600.0, 42, 0x268f_83e3_eefe_a6f3u64),
            (20_000, 0.72, 600.0, 7, 0x2aeb_ecf7_caa3_b67b),
            (1 << 40, 0.02, 400.0, 660, 0x28d6_7c0b_9bd3_382d),
        ] {
            let mut t = LocalityTrace::new(rows, unique_prob, mean_distance, seed);
            let got = fnv1a(&t.take_ids(50_000));
            assert_eq!(
                got, want,
                "rows={rows} p={unique_prob} seed={seed}: {got:#018x}"
            );
        }
    }
}
