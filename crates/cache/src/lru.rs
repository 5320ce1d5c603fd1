//! Fully associative LRU cache with O(1) operations.

use std::hash::Hash;

use recssd_sim::stats::HitStats;
use recssd_sim::FxHashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fully associative least-recently-used cache.
///
/// Backed by a hash map plus an intrusive doubly-linked recency list over a
/// slab, so `get`/`insert`/`remove` are O(1). Used for the host-side
/// embedding cache of the baseline system and for the FTL's internal page
/// cache.
///
/// # Example
///
/// ```
/// use recssd_cache::LruCache;
/// let mut c = LruCache::new(2);
/// c.insert(1, "one");
/// c.insert(2, "two");
/// assert_eq!(c.get(&1), Some(&"one")); // 1 is now most recent
/// c.insert(3, "three");                // evicts 2
/// assert!(c.get(&2).is_none());
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.stats().hits(), 1);
/// assert_eq!(c.stats().misses(), 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slab: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
    capacity: usize,
    stats: HitStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache capacity must be positive");
        LruCache {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: HitStats::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accumulated hit/miss statistics (updated by [`LruCache::get`] only).
    pub fn stats(&self) -> HitStats {
        self.stats
    }

    /// Resets hit/miss statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn node(&self, idx: usize) -> &Node<K, V> {
        self.slab[idx].as_ref().expect("linked slot must be live")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<K, V> {
        self.slab[idx].as_mut().expect("linked slot must be live")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Looks up `key`, marking it most-recently-used and recording a hit or
    /// miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hit();
                self.touch(idx);
                Some(&self.node(idx).value)
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    /// Looks up `key` without touching recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.node(idx).value)
    }

    /// `true` if `key` is cached (no recency/statistics side effects).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key → value`, marking it most-recently-used. Returns the
    /// evicted least-recently-used entry if the cache was full, or the
    /// previous `(key, value)` if `key` was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.node_mut(idx).value, value);
            self.touch(idx);
            return Some((key, old));
        }
        let evicted = if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let node = self.slab[lru].take().expect("tail slot must be live");
            self.map.remove(&node.key);
            self.free.push(lru);
            Some((node.key, node.value))
        } else {
            None
        };
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let node = self.slab[idx].take().expect("mapped slot must be live");
        self.free.push(idx);
        Some(node.value)
    }

    /// Iterates entries from most- to least-recently-used.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            cache: self,
            cursor: self.head,
        }
    }

    /// Removes every entry, keeping statistics.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Iterator over cache entries in recency order (most recent first).
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    cache: &'a LruCache<K, V>,
    cursor: usize,
}

impl<'a, K: Eq + Hash + Clone, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.cache.node(self.cursor);
        self.cursor = node.next;
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        c.get(&1);
        let evicted = c.insert(4, 40);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        let old = c.insert(1, 11);
        assert_eq!(old, Some((1, 10)));
        c.insert(3, 30); // evicts 2, since 1 was refreshed
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn peek_does_not_disturb_recency_or_stats() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(&1), Some(&10));
        assert_eq!(c.stats().accesses(), 0);
        c.insert(3, 30); // 1 is still LRU, gets evicted
        assert!(!c.contains(&1));
    }

    #[test]
    fn remove_detaches_entry() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.remove(&2), Some(20));
        assert_eq!(c.remove(&2), None);
        assert_eq!(c.len(), 2);
        // Linked list is still intact around the removed node.
        let keys: Vec<i32> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 1]);
        // Slot is reused.
        c.insert(4, 40);
        assert_eq!(c.len(), 3);
        assert!(c.slab.len() <= 3);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.remove(&3), Some(30)); // head
        assert_eq!(c.remove(&1), Some(10)); // tail
        let keys: Vec<i32> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2]);
        assert_eq!(c.remove(&2), Some(20));
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.get(&1);
        c.get(&2);
        c.get(&1);
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().misses(), 1);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn iter_walks_recency_order() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        c.get(&1);
        let keys: Vec<i32> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 2]);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(&1));
        c.insert(2, 20);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn single_entry_cache() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.insert(2, 20), Some((1, 10)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u64, ()>::new(0);
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let mut c = LruCache::new(4);
        for i in 0..1000u64 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 4);
        assert!(c.slab.len() <= 5, "slab grew to {}", c.slab.len());
        let keys: Vec<u64> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![999, 998, 997, 996]);
    }

    /// Cross-check against a naive reference implementation.
    #[test]
    fn matches_reference_model_under_mixed_workload() {
        use recssd_sim::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(99);
        let cap = 8;
        let mut lru = LruCache::new(cap);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // front = most recent
        for step in 0..5000u64 {
            let key = rng.gen_range(0..24);
            match rng.gen_range(0..3) {
                0 => {
                    let got = lru.get(&key).copied();
                    let pos = reference.iter().position(|&(k, _)| k == key);
                    let want = pos.map(|p| {
                        let e = reference.remove(p);
                        reference.insert(0, e);
                        e.1
                    });
                    assert_eq!(got, want, "get({key}) diverged at step {step}");
                }
                1 => {
                    lru.insert(key, step);
                    if let Some(p) = reference.iter().position(|&(k, _)| k == key) {
                        reference.remove(p);
                    } else if reference.len() == cap {
                        reference.pop();
                    }
                    reference.insert(0, (key, step));
                }
                _ => {
                    let got = lru.remove(&key);
                    let pos = reference.iter().position(|&(k, _)| k == key);
                    let want = pos.map(|p| reference.remove(p).1);
                    assert_eq!(got, want, "remove({key}) diverged at step {step}");
                }
            }
            assert_eq!(lru.len(), reference.len());
        }
    }
}
