//! Re-export shim for the benchmark package.
//!
//! The LRU cache and the static partition live in `recssd-sim`
//! ([`recssd_sim::LruCache`], [`recssd_sim::StaticPartition`]). This crate
//! only re-exports them so `benchmark/` keeps building unmodified; no
//! workspace crate depends on it. ROADMAP item 1(h) repoints the
//! benchmark's imports and deletes this crate.

#![forbid(unsafe_code)]

pub use recssd_sim::stats::HitStats;
pub use recssd_sim::{LruCache, StaticPartition, StaticPartitionBuilder};

#[cfg(test)]
mod tests {
    /// Compiles only while every name here is the `recssd_sim` type itself,
    /// so a fork defined in this crate fails the build.
    #[test]
    fn shim_names_are_the_recssd_sim_types() {
        fn lru(_: recssd_sim::LruCache<u64, ()>) {}
        fn partition(_: recssd_sim::StaticPartition) {}
        fn builder(_: recssd_sim::StaticPartitionBuilder) {}
        fn stats(_: recssd_sim::stats::HitStats) {}

        let b = crate::StaticPartitionBuilder::new();
        partition(crate::StaticPartition::empty());
        partition(b.build(0));
        builder(b);
        lru(crate::LruCache::new(1));
        stats(crate::HitStats::new());
    }
}
