//! Profile-guided static partitioning of hot embedding rows.
//!
//! §4.2 of the paper: "we implement a static partitioning technique
//! utilizing input data profiling which can partition embedding tables such
//! that frequently accessed embeddings are stored in host DRAM, while
//! infrequently used embeddings are stored on the SSD."

use std::collections::HashMap;

use crate::FxHashSet;

/// Accumulates access frequencies from a profiling trace.
///
/// # Example
///
/// ```
/// use recssd_sim::StaticPartitionBuilder;
/// let mut b = StaticPartitionBuilder::new();
/// for id in [1u64, 1, 1, 2, 2, 3] {
///     b.observe(id);
/// }
/// let p = b.build(2);
/// assert!(p.is_hot(1) && p.is_hot(2) && !p.is_hot(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StaticPartitionBuilder {
    counts: HashMap<u64, u64>,
}

impl StaticPartitionBuilder {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        StaticPartitionBuilder::default()
    }

    /// Records one access to `id`.
    pub fn observe(&mut self, id: u64) {
        *self.counts.entry(id).or_insert(0) += 1;
    }

    /// Records every access produced by `ids`.
    pub fn observe_all<I: IntoIterator<Item = u64>>(&mut self, ids: I) {
        for id in ids {
            self.observe(id);
        }
    }

    /// Records `n` accesses to `id` at once — the bulk entry point for
    /// callers that already hold aggregated frequency counts (e.g. the
    /// placement profiler), avoiding an O(accesses) replay.
    pub fn observe_count(&mut self, id: u64, n: u64) {
        if n > 0 {
            *self.counts.entry(id).or_insert(0) += n;
        }
    }

    /// Number of distinct ids observed.
    pub fn distinct_ids(&self) -> usize {
        self.counts.len()
    }

    /// Selects the `capacity` most frequently accessed ids as the hot
    /// (host-DRAM) partition. Ties break toward smaller ids so the
    /// partition is deterministic.
    pub fn build(&self, capacity: usize) -> StaticPartition {
        let mut freq: Vec<(u64, u64)> = self.counts.iter().map(|(&id, &n)| (id, n)).collect();
        freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let hot: FxHashSet<u64> = freq.into_iter().take(capacity).map(|(id, _)| id).collect();
        StaticPartition {
            hot,
            profiled_ids: self.counts.len(),
        }
    }
}

/// The built partition: a membership test for "resident in host DRAM".
///
/// Unlike a cache, the partition never changes at inference time — the hot
/// set is fixed by the profiling pass, which is what makes it cheap enough
/// to combine with the NDP path (the host knows *before issuing a command*
/// which ids it can serve locally).
#[derive(Debug, Clone, Default)]
pub struct StaticPartition {
    hot: FxHashSet<u64>,
    profiled_ids: usize,
}

impl StaticPartition {
    /// An empty partition (everything cold): useful as the "no host cache"
    /// configuration.
    pub fn empty() -> Self {
        StaticPartition::default()
    }

    /// Builds a partition from an explicit hot set — for callers that
    /// already ranked their profile (e.g. the placement planner), so one
    /// selection is the single source of truth. `profiled_ids` is the
    /// size of the profiled id universe (feeds
    /// [`StaticPartition::hot_fraction`]).
    pub fn from_hot_ids<I: IntoIterator<Item = u64>>(hot: I, profiled_ids: usize) -> Self {
        StaticPartition {
            hot: hot.into_iter().collect(),
            profiled_ids,
        }
    }

    /// `true` if `id` lives in host DRAM.
    pub fn is_hot(&self, id: u64) -> bool {
        self.hot.contains(&id)
    }

    /// Number of hot ids.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// `true` if no ids are hot.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Fraction of the *profiled* id space that is hot — the paper notes
    /// the partition hit rate asymptotically approaches this value ("the
    /// size of the static partition relative to the used ID space").
    pub fn hot_fraction(&self) -> f64 {
        if self.profiled_ids == 0 {
            0.0
        } else {
            self.hot.len() as f64 / self.profiled_ids as f64
        }
    }

    /// Iterates the hot ids in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.hot.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn picks_most_frequent_ids() {
        let mut b = StaticPartitionBuilder::new();
        for _ in 0..10 {
            b.observe(7);
        }
        for _ in 0..5 {
            b.observe(3);
        }
        b.observe(1);
        let p = b.build(2);
        assert!(p.is_hot(7));
        assert!(p.is_hot(3));
        assert!(!p.is_hot(1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn observe_count_matches_repeated_observe() {
        let mut a = StaticPartitionBuilder::new();
        let mut b = StaticPartitionBuilder::new();
        for _ in 0..7 {
            a.observe(3);
        }
        a.observe(9);
        b.observe_count(3, 7);
        b.observe_count(9, 1);
        b.observe_count(4, 0); // zero-count ids are not recorded
        assert_eq!(b.distinct_ids(), 2);
        let (pa, pb) = (a.build(1), b.build(1));
        assert!(pa.is_hot(3) && pb.is_hot(3));
        assert!(!pb.is_hot(9) && !pb.is_hot(4));
    }

    #[test]
    fn capacity_larger_than_ids_takes_all() {
        let mut b = StaticPartitionBuilder::new();
        b.observe_all([1, 2, 3]);
        let p = b.build(100);
        assert_eq!(p.len(), 3);
        assert!((p.hot_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_deterministically() {
        let mut b = StaticPartitionBuilder::new();
        b.observe_all([5, 4, 3, 2, 1]); // all frequency 1
        let p = b.build(2);
        assert!(p.is_hot(1) && p.is_hot(2), "smaller ids win ties");
    }

    #[test]
    fn from_hot_ids_builds_the_given_membership() {
        let p = StaticPartition::from_hot_ids([4, 9], 8);
        assert!(p.is_hot(4) && p.is_hot(9) && !p.is_hot(1));
        assert_eq!(p.len(), 2);
        assert!((p.hot_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_partition() {
        let p = StaticPartition::empty();
        assert!(p.is_empty());
        assert!(!p.is_hot(0));
        assert_eq!(p.hot_fraction(), 0.0);
    }

    #[test]
    fn hot_fraction_matches_quarter_partition() {
        // The paper: "the hit rate asymptotically approaches 25%, the size
        // of the static partition relative to the used ID space." Profile a
        // uniform trace, keep 1/4 of the ids, and check the steady-state
        // hit rate of membership tests on fresh uniform draws.
        let ids: u64 = 4096;
        let mut b = StaticPartitionBuilder::new();
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..200_000 {
            b.observe(rng.gen_range(0..ids));
        }
        let p = b.build((ids / 4) as usize);
        let mut hits = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if p.is_hot(rng.gen_range(0..ids)) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "hit rate was {rate}");
    }

    #[test]
    fn skewed_profile_gives_high_hit_rate_with_small_partition() {
        // With a hot working set, a small partition captures most accesses
        // — the effect that makes static partitioning viable at all (§3.1).
        let mut rng = Xoshiro256::seed_from(2);
        let mut b = StaticPartitionBuilder::new();
        let draw = |rng: &mut Xoshiro256| -> u64 {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..64) // hot region
            } else {
                rng.gen_range(64..100_000)
            }
        };
        for _ in 0..100_000 {
            b.observe(draw(&mut rng));
        }
        let p = b.build(64);
        let mut hits = 0;
        let n = 50_000;
        for _ in 0..n {
            if p.is_hot(draw(&mut rng)) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!(rate > 0.75, "hot-set hit rate was {rate}");
    }
}
