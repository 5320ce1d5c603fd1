//! Measurement primitives: counters, hit/miss statistics and histograms.
//!
//! The paper reports average latencies over many batches (§5 "We average
//! latency results across many batches") and cache hit rates (Fig. 10).
//! The types here back those reports.

use std::fmt;

use crate::SimDuration;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use recssd_sim::stats::Counter;
/// let mut hits = Counter::new();
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Hit/miss accounting for any cache-like structure.
///
/// # Example
///
/// ```
/// use recssd_sim::stats::HitStats;
/// let mut s = HitStats::new();
/// s.hit();
/// s.hit();
/// s.miss();
/// assert_eq!(s.accesses(), 3);
/// assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitStats {
    hits: u64,
    misses: u64,
}

impl HitStats {
    /// Creates empty statistics.
    pub const fn new() -> Self {
        HitStats { hits: 0, misses: 0 }
    }

    /// Records a hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Records `n` hits at once.
    pub fn add_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Records `n` misses at once.
    pub fn add_misses(&mut self, n: u64) {
        self.misses += n;
    }

    /// Number of hits recorded.
    pub const fn hits(self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    pub const fn misses(self) -> u64 {
        self.misses
    }

    /// Total accesses.
    pub const fn accesses(self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]`; zero when no accesses were recorded.
    pub fn hit_rate(self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Resets both counters.
    pub fn reset(&mut self) {
        *self = HitStats::new();
    }

    /// Sums another `HitStats` into this one.
    pub fn merge(&mut self, other: HitStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Number of linear sub-buckets per power-of-two octave in
/// [`LogHistogram`]: 32 sub-buckets bound the relative quantile error at
/// ~3 %, HDR-histogram style.
const LOG_SUB_BITS: u32 = 5;
const LOG_SUB: usize = 1 << LOG_SUB_BITS;
const LOG_BUCKETS: usize = (64 - LOG_SUB_BITS as usize + 1) * LOG_SUB;

/// An HDR-style histogram of `u64` samples (typically nanosecond
/// latencies): power-of-two octaves split into 32 linear sub-buckets, so
/// quantiles carry ~two significant digits across the full `u64` range at
/// a fixed ~15 KB footprint. The one latency recorder of the stack — per
/// request in the serving runtime (p50/p95/p99/p999), per operation in
/// the flash array.
///
/// Count, sum, min and max are exact; quantiles are bucket upper bounds
/// clamped to the exact max.
///
/// # Example
///
/// ```
/// use recssd_sim::stats::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let q = h.quantiles();
/// assert_eq!(q.count, 1000);
/// assert!(q.p50 >= 490 && q.p50 <= 520, "p50 = {}", q.p50);
/// assert!(q.p99 >= 975 && q.p99 <= 1000, "p99 = {}", q.p99);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Box<[u64; LOG_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// A quantile summary snapshot of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub count: u64,
    /// Exact arithmetic mean (0 if empty).
    pub mean: f64,
    /// Median (approximate, ~3 % relative error).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact largest sample (0 if empty).
    pub max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Box::new([0; LOG_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(value: u64) -> usize {
        if value < LOG_SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - LOG_SUB_BITS;
        let sub = ((value >> shift) as usize) & (LOG_SUB - 1);
        (((msb - LOG_SUB_BITS + 1) as usize) << LOG_SUB_BITS) | sub
    }

    /// Largest value mapping to bucket `idx` (inclusive). Computed in
    /// `u128`: the topmost bucket's exclusive bound is 2^64, which would
    /// wrap in `u64`.
    fn bucket_upper(idx: usize) -> u64 {
        let octave = idx >> LOG_SUB_BITS;
        let sub = (idx & (LOG_SUB - 1)) as u128;
        if octave == 0 {
            return sub as u64;
        }
        let shift = octave as u32 - 1;
        let upper = ((LOG_SUB as u128 + sub + 1) << shift) - 1;
        upper.min(u64::MAX as u128) as u64
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`SimDuration`] sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_ns());
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate percentile (`p` in `[0, 100]`): the upper bound of the
    /// bucket containing the `p`-th percentile sample, clamped to the
    /// exact min/max. Returns `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The standard serving-latency summary: p50/p95/p99/p999 plus exact
    /// count, mean and max.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(50.0).unwrap_or(0),
            p95: self.percentile(95.0).unwrap_or(0),
            p99: self.percentile(99.0).unwrap_or(0),
            p999: self.percentile(99.9).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the histogram to empty, in place (no reallocation).
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(Counter::default().get(), 0);
    }

    #[test]
    fn hit_stats_rate() {
        let mut s = HitStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        s.add_hits(84);
        s.add_misses(16);
        assert!((s.hit_rate() - 0.84).abs() < 1e-12);
        let mut t = HitStats::new();
        t.hit();
        t.merge(s);
        assert_eq!(t.hits(), 85);
        assert_eq!(t.accesses(), 101);
        t.reset();
        assert_eq!(t.accesses(), 0);
    }

    #[test]
    fn histogram_exact_moments() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), 500.5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn histogram_percentile_bucket_bounds() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(1024);
        // p0..p33 land in the low buckets, p100 in the top one.
        assert_eq!(h.percentile(1.0), Some(0));
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(1024));
    }

    #[test]
    fn log_histogram_quantiles_are_tight() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        // Sub-bucketed octaves keep the relative error within ~1/32.
        for (p, exact) in [(50.0, 50_000u64), (95.0, 95_000), (99.0, 99_000)] {
            let got = h.percentile(p).unwrap();
            assert!(
                got >= exact && got as f64 <= exact as f64 * 1.04,
                "p{p}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100_000));
    }

    #[test]
    fn log_histogram_handles_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX); // tops the last bucket: must not overflow
        assert_eq!(h.percentile(1.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        let q = h.quantiles();
        assert_eq!(q.count, 2);
        assert_eq!(q.max, u64::MAX);
    }

    #[test]
    fn log_histogram_empty_edge_cases() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        // quantiles() zero-fills instead of panicking on an empty histogram.
        assert_eq!(h.quantiles(), Quantiles::default());
        // Merging an empty histogram into an empty one stays empty (the
        // u64::MAX min sentinel must not leak out as a value).
        let mut a = LogHistogram::new();
        a.merge(&LogHistogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), None);
        assert_eq!(a.quantiles(), Quantiles::default());
    }

    #[test]
    fn log_histogram_single_sample_is_exact_at_every_percentile() {
        for v in [0u64, 1, 31, 32, 1_000_003, u64::MAX] {
            let mut h = LogHistogram::new();
            h.record(v);
            // min == max clamps the bucket upper bound to the exact value.
            for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
                assert_eq!(h.percentile(p), Some(v), "p{p} of single sample {v}");
            }
            let q = h.quantiles();
            assert_eq!((q.count, q.p50, q.p999, q.max), (1, v, v, v));
            assert_eq!(q.mean, v as f64);
        }
    }

    #[test]
    fn log_histogram_saturating_top_bucket_does_not_overflow() {
        // Values at and around the top octave all land in the saturating
        // last bucket whose exclusive upper bound (2^64) would wrap in u64.
        let mut h = LogHistogram::new();
        for v in [u64::MAX, u64::MAX - 1, u64::MAX / 2 + 1] {
            h.record(v);
        }
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        let p1 = h.percentile(1.0).unwrap();
        assert!(p1 >= h.min().unwrap(), "clamped to exact min");
        assert!(h.quantiles().p50 >= p1, "quantiles stay monotone");
    }

    #[test]
    fn log_histogram_fleet_merge_matches_single_recorder() {
        // Per-shard histograms merged must quantile like one fleet-wide
        // recorder fed every sample — the fleet-level aggregation path.
        let mut shard_a = LogHistogram::new();
        let mut shard_b = LogHistogram::new();
        let mut fleet = LogHistogram::new();
        for v in 1..=1000u64 {
            if v % 2 == 0 {
                shard_a.record(v);
            } else {
                shard_b.record(v);
            }
            fleet.record(v);
        }
        let mut merged = shard_a.clone();
        merged.merge(&shard_b);
        assert_eq!(merged.count(), fleet.count());
        assert_eq!(merged.min(), fleet.min());
        assert_eq!(merged.max(), fleet.max());
        assert_eq!(merged.quantiles(), fleet.quantiles());
        // Merging an empty shard is a no-op.
        let before = merged.quantiles();
        merged.merge(&LogHistogram::new());
        assert_eq!(merged.quantiles(), before);
    }

    #[test]
    fn log_histogram_merge_and_reset() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record_duration(SimDuration::from_us(1));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1000));
        a.reset();
        assert_eq!(a, LogHistogram::new(), "reset leaves no residue");
        // A reset histogram is a fresh recorder: merging into it matches
        // recording from scratch.
        a.merge(&b);
        assert_eq!(a, b);
    }
}
