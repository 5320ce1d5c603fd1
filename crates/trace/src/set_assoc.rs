//! The key-only N-way set-associative LRU behind the Fig. 4 page-cache
//! sweep ([`crate::analysis::page_cache_sweep`]).

use recssd_sim::rng::mix64;

/// "A 16-way, LRU, 4KB page cache" (Fig. 4) over `u64` keys: keys hash
/// (SplitMix64) into sets, and within a set replacement is exact LRU over
/// at most `ways` keys. It records which keys are resident, nothing else.
#[derive(Debug)]
pub(crate) struct SetAssocLru {
    /// Each set's resident keys, least recently used first.
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl SetAssocLru {
    /// `capacity` keys as `capacity / ways` sets of `ways`, rounded up to
    /// a whole number of sets (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub(crate) fn new(capacity: usize, ways: usize) -> Self {
        assert!(ways > 0, "set-associative cache needs at least one way");
        let n_sets = capacity.div_ceil(ways).max(1);
        SetAssocLru {
            sets: (0..n_sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
        }
    }

    /// Touches `key`, making it its set's most recent: `true` on a hit;
    /// on a miss it is filled, evicting the set's least recent key if the
    /// set is full.
    pub(crate) fn access(&mut self, key: u64) -> bool {
        let n_sets = self.sets.len() as u64;
        let set = &mut self.sets[(mix64(key) % n_sets) as usize];
        let hit = match set.iter().position(|&k| k == key) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => {
                if set.len() == self.ways {
                    set.remove(0);
                }
                false
            }
        };
        set.push(key);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_capacity_up_to_whole_sets() {
        let c = SetAssocLru::new(100, 16);
        assert_eq!(c.sets.len(), 7);
        assert_eq!(c.sets.len() * c.ways, 112);
        assert_eq!(SetAssocLru::new(1, 16).sets.len(), 1);
    }

    #[test]
    fn evicts_lru_within_set() {
        // One set => behaves as fully associative LRU of `ways` keys.
        let mut c = SetAssocLru::new(2, 2);
        assert_eq!(c.sets.len(), 1);
        c.access(1);
        c.access(2);
        assert!(c.access(1));
        assert!(!c.access(3), "3 is new; it evicts 2, the least recent");
        assert_eq!(c.sets[0], [1, 3]);
        assert!(!c.access(2));
    }

    #[test]
    fn access_fills_on_miss() {
        let mut c = SetAssocLru::new(16, 4);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert!(c.access(7));
    }

    #[test]
    fn conflict_misses_appear_with_low_associativity() {
        // Direct-mapped-like behaviour with 1 way: keys mapping to the same
        // set evict each other even though the cache is mostly empty.
        let mut c = SetAssocLru::new(4, 1);
        let sets = c.sets.len() as u64;
        let base = 0u64;
        let collide = (1..10_000u64)
            .find(|&k| mix64(k) % sets == mix64(base) % sets)
            .expect("collision exists");
        c.access(base);
        c.access(collide);
        assert!(!c.access(base), "1-way set must have evicted the first key");
    }

    #[test]
    fn higher_associativity_improves_looping_hit_rate() {
        // A classic LRU-thrashing loop: N+1 distinct keys looped through an
        // N-entry structure. A fully-associative LRU gets zero hits while a
        // set-associative one retains some.
        let total = 16;
        let mut full = SetAssocLru::new(total, total);
        let mut set4 = SetAssocLru::new(total, 4);
        let (mut full_hits, mut set4_hits) = (0, 0);
        for _ in 0..50 {
            for k in 0..=total as u64 {
                full_hits += u32::from(full.access(k));
                set4_hits += u32::from(set4.access(k));
            }
        }
        assert_eq!(
            full_hits, 0,
            "fully associative LRU thrashes on loop of capacity+1"
        );
        assert!(
            set4_hits > 0,
            "set-associative cache escapes whole-loop thrash"
        );
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = SetAssocLru::new(16, 0);
    }
}
