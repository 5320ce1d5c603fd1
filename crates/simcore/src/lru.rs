//! Fully associative LRU cache with O(1) operations.
//!
//! # Layout
//!
//! The entries live in one dense `Vec` of nodes: the key, the value and
//! two `u32` links of the recency list, so a node of
//! `LruCache<u64, ()>` is 16 bytes. Keys are found through an
//! open-addressed index of `u32` node positions (linear probing on the
//! high bits of the Fx hash, backward-shift deletion, no tombstones). The
//! index is a power of two at least twice the entry count, so its load
//! stays at or below ½ and it costs 8 to 16 bytes a key; it grows with
//! the entries, never with the capacity. A full 2 048-key cache of `u64`
//! keys and unit values holds 24 bytes a key (66 with the earlier hash
//! map over a slab of optional nodes).
//!
//! An eviction reuses the least recent node in place, and a removal moves
//! the last node into the hole, so the nodes stay dense and positions
//! never leak. Positions carry no meaning: recency lives only in the
//! links, and [`LruCache::iter`] follows them.

use std::hash::{BuildHasher, Hash};

use crate::stats::HitStats;
use crate::FxBuildHasher;

/// No node: the end of the recency list, and an empty index slot.
const NIL: u32 = u32::MAX;

/// Index slots of the first index an insert builds.
const MIN_INDEX: usize = 4;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// A fully associative least-recently-used cache.
///
/// A dense node array linked into a doubly-linked recency list and found
/// through an open-addressed `u32` index at most half full, so
/// `get`/`insert`/`remove` are O(1) and a full cache of `u64` keys and
/// unit values costs 24 to 32 bytes a key. Used for the host-side embedding cache of the
/// baseline system and for the FTL's internal page cache.
///
/// # Example
///
/// ```
/// use recssd_sim::LruCache;
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
    nodes: Vec<Node<K, V>>,
    /// Node positions by key hash; `NIL` = empty. Empty until the first
    /// insert, then a power of two at least twice `nodes.len()`.
    index: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    capacity: usize,
    stats: HitStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. Nothing is
    /// allocated until the first insert.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` node link.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "LRU cache capacity must be below 2^32 - 1"
        );
        LruCache {
            nodes: Vec::new(),
            index: Vec::new(),
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
        self.nodes.len()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Accumulated hit/miss statistics (updated by [`LruCache::get`] only).
    pub fn stats(&self) -> HitStats {
        self.stats
    }

    /// Resets hit/miss statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn node(&self, n: u32) -> &Node<K, V> {
        &self.nodes[n as usize]
    }

    fn node_mut(&mut self, n: u32) -> &mut Node<K, V> {
        &mut self.nodes[n as usize]
    }

    /// The index slot `key`'s probe starts at: the hash's high bits, which
    /// a multiplicative hash mixes best. The index must not be empty.
    fn home(&self, key: &K) -> usize {
        let bits = self.index.len().trailing_zeros();
        (FxBuildHasher::default().hash_one(key) >> (64 - bits)) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot that ends
    /// its probe. The index must not be empty.
    fn probe(&self, key: &K) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut s = self.home(key);
        loop {
            match self.index[s] {
                NIL => return Err(s),
                n if self.node(n).key == *key => return Ok(s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The node holding `key`.
    fn find(&self, key: &K) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        self.probe(key).ok().map(|s| self.index[s])
    }

    /// The index slot pointing at node `n`.
    fn slot_of(&self, n: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut s = self.home(&self.node(n).key);
        while self.index[s] != n {
            s = (s + 1) & mask;
        }
        s
    }

    /// Points an empty slot at node `n`, whose key is not indexed.
    fn index_node(&mut self, n: u32) {
        let s = self
            .probe(&self.node(n).key)
            .expect_err("key indexed twice");
        self.index[s] = n;
    }

    /// Empties slot `hole`, shifting back every later slot of its probe
    /// run that may move, so no probe ever crosses a gap it used to span.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut s = hole;
        loop {
            s = (s + 1) & mask;
            let n = self.index[s];
            if n == NIL {
                break;
            }
            // `n` may fill the hole unless its home lies in (hole, s].
            let home = self.home(&self.node(n).key);
            if s.wrapping_sub(home) & mask >= s.wrapping_sub(hole) & mask {
                self.index[hole] = n;
                hole = s;
            }
        }
        self.index[hole] = NIL;
    }

    /// Doubles the index (or builds the first) and re-indexes every node.
    fn grow_index(&mut self) {
        let slots = (2 * self.index.len()).max(MIN_INDEX);
        self.index.clear();
        self.index.resize(slots, NIL);
        for n in 0..self.nodes.len() as u32 {
            self.index_node(n);
        }
    }

    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = *self.node(n);
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

    fn push_front(&mut self, n: u32) {
        let old_head = self.head;
        {
            let node = self.node_mut(n);
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = n;
        }
        self.head = n;
        if self.tail == NIL {
            self.tail = n;
        }
    }

    fn touch(&mut self, n: u32) {
        if self.head != n {
            self.unlink(n);
            self.push_front(n);
        }
    }

    /// Looks up `key`, marking it most-recently-used and recording a hit or
    /// miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.find(key) {
            Some(n) => {
                self.stats.hit();
                self.touch(n);
                Some(&self.node(n).value)
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    /// Looks up `key` without touching recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.find(key).map(|n| &self.node(n).value)
    }

    /// `true` if `key` is cached (no recency/statistics side effects).
    pub fn contains(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, marking it most-recently-used. Returns the
    /// evicted least-recently-used entry if the cache was full, or the
    /// previous `(key, value)` if `key` was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(n) = self.find(&key) {
            let old = std::mem::replace(&mut self.node_mut(n).value, value);
            self.touch(n);
            return Some((key, old));
        }
        if self.nodes.len() == self.capacity {
            // The least recent node takes the new entry in place.
            let n = self.tail;
            self.unindex(self.slot_of(n));
            let node = self.node_mut(n);
            let evicted = (
                std::mem::replace(&mut node.key, key),
                std::mem::replace(&mut node.value, value),
            );
            self.index_node(n);
            self.touch(n);
            return Some(evicted);
        }
        if 2 * (self.nodes.len() + 1) > self.index.len() {
            self.grow_index();
        }
        if self.nodes.len() == self.nodes.capacity() {
            // Double, but never past the capacity.
            let want = (2 * self.nodes.len()).max(4).min(self.capacity);
            self.nodes.reserve_exact(want - self.nodes.len());
        }
        let n = self.nodes.len() as u32;
        self.nodes.push(Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.index_node(n);
        self.push_front(n);
        None
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let n = self.find(key)?;
        self.unindex(self.slot_of(n));
        self.unlink(n);
        let last = self.nodes.len() as u32 - 1;
        if n != last {
            // The last node moves into the hole: repoint its index slot
            // and its neighbours' links.
            let s = self.slot_of(last);
            self.index[s] = n;
            let Node { prev, next, .. } = *self.node(last);
            if prev != NIL {
                self.node_mut(prev).next = n;
            } else {
                self.head = n;
            }
            if next != NIL {
                self.node_mut(next).prev = n;
            } else {
                self.tail = n;
            }
        }
        Some(self.nodes.swap_remove(n as usize).value)
    }

    /// Iterates entries from most- to least-recently-used.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            cache: self,
            cursor: self.head,
        }
    }

    /// Removes every entry, keeping statistics and allocations.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.index.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Iterator over cache entries in recency order (most recent first).
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    cache: &'a LruCache<K, V>,
    cursor: u32,
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
        assert!(c.nodes.len() <= 3);
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
        assert_eq!(c.nodes.capacity(), 4, "the nodes grew past the capacity");
        assert!(c.index.len() <= 8, "the index grew to {}", c.index.len());
        let keys: Vec<u64> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![999, 998, 997, 996]);
    }

    /// Cross-check against a naive reference implementation.
    #[test]
    fn matches_reference_model_under_mixed_workload() {
        use crate::rng::Xoshiro256;
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

    /// The cache as it was before the dense nodes and the `u32` index,
    /// line for line: a hash map of slab positions over a slab of
    /// optional nodes. The reference the op-for-op property holds the
    /// cache of record to.
    mod slab {
        use std::hash::Hash;

        use crate::stats::HitStats;
        use crate::FxHashMap;

        const NIL: usize = usize::MAX;

        struct Node<K, V> {
            key: K,
            value: V,
            prev: usize,
            next: usize,
        }

        pub struct SlabLru<K, V> {
            map: FxHashMap<K, usize>,
            slab: Vec<Option<Node<K, V>>>,
            free: Vec<usize>,
            head: usize,
            tail: usize,
            capacity: usize,
            stats: HitStats,
        }

        impl<K: Eq + Hash + Clone, V> SlabLru<K, V> {
            pub fn new(capacity: usize) -> Self {
                SlabLru {
                    map: FxHashMap::default(),
                    slab: Vec::new(),
                    free: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    capacity,
                    stats: HitStats::new(),
                }
            }

            pub fn len(&self) -> usize {
                self.map.len()
            }

            pub fn stats(&self) -> HitStats {
                self.stats
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

            pub fn peek(&self, key: &K) -> Option<&V> {
                self.map.get(key).map(|&idx| &self.node(idx).value)
            }

            pub fn contains(&self, key: &K) -> bool {
                self.map.contains_key(key)
            }

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

            pub fn remove(&mut self, key: &K) -> Option<V> {
                let idx = self.map.remove(key)?;
                self.unlink(idx);
                let node = self.slab[idx].take().expect("mapped slot must be live");
                self.free.push(idx);
                Some(node.value)
            }

            pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
                let mut cursor = self.head;
                std::iter::from_fn(move || {
                    if cursor == NIL {
                        return None;
                    }
                    let node = self.node(cursor);
                    cursor = node.next;
                    Some((&node.key, &node.value))
                })
            }

            pub fn clear(&mut self) {
                self.map.clear();
                self.slab.clear();
                self.free.clear();
                self.head = NIL;
                self.tail = NIL;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random `get`, `peek`, `contains`, `insert`, `remove` and
        /// `clear` sequences return what the slab cache returns, op for
        /// op, and leave the same length, statistics and recency order
        /// behind every op.
        #[test]
        fn matches_the_slab_cache_op_for_op(
            capacity in 1usize..65,
            ops in proptest::collection::vec((0u8..24, 0u64..1 << 20), 0..400),
        ) {
            let mut new = LruCache::new(capacity);
            let mut old = slab::SlabLru::new(capacity);
            let keys = 2 * capacity as u64;
            for (step, (op, draw)) in ops.into_iter().enumerate() {
                let key = draw % keys;
                let value = draw >> 8;
                match op {
                    0..=5 => assert_eq!(new.get(&key), old.get(&key), "get, step {step}"),
                    6 | 7 => assert_eq!(new.peek(&key), old.peek(&key), "peek, step {step}"),
                    8 | 9 => assert_eq!(new.contains(&key), old.contains(&key)),
                    10..=17 => assert_eq!(
                        new.insert(key, value),
                        old.insert(key, value),
                        "insert, step {step}"
                    ),
                    18..=22 => assert_eq!(new.remove(&key), old.remove(&key), "remove, step {step}"),
                    _ => {
                        new.clear();
                        old.clear();
                    }
                }
                assert_eq!(new.len(), old.len());
                assert_eq!(new.stats(), old.stats());
                assert!(new.iter().eq(old.iter()), "recency order, step {step}");
            }
        }
    }
}
