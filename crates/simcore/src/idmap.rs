//! The direct-mapped table every id-keyed in-flight map is built from.

use std::fmt;
use std::hash::Hash;
use std::ops::Index;

use crate::FxHashMap;

/// A key an [`IdMap`] can address directly: its [`IdKey::id`] picks the
/// slot (`id & mask`). Ids the simulator hands out from increasing
/// counters land in consecutive slots; any other value is still correct,
/// it just takes the overflow path more often.
pub trait IdKey: Copy + Eq + Hash {
    /// The bits the slot index is taken from.
    fn id(self) -> u64;
}

macro_rules! int_id_key {
    ($($t:ty),*) => {$(
        impl IdKey for $t {
            #[inline]
            fn id(self) -> u64 {
                self as u64
            }
        }
    )*};
}
int_id_key!(u16, u64);

/// Slot count of the first table.
const MIN_SLOTS: usize = 8;

/// Slots the first allocation makes room for: the table doubles in
/// place, without allocating, until it outgrows them.
const RESERVED_SLOTS: usize = 64;

/// A map for ids handed out from increasing counters — flash ops, FTL
/// requests, PCIe transfers, firmware tags, operators, requests — the
/// simulator's analogue of firmware addressing an in-flight request by
/// its id in a fixed pending-request buffer.
///
/// Key `k` lives in slot `k.id() & mask` of a power-of-two slot array, so
/// the live window of a counter maps onto distinct slots and a lookup is
/// one index and one compare, with no hashing. When a new key's slot is
/// taken by a live entry, the table doubles if it is at least a quarter
/// full (the ids are crowding it); otherwise the occupant — an entry that
/// outlived a whole table of later ids, or a key not from a counter —
/// moves to a small [`FxHashMap`] overflow. The slot array therefore
/// stays within 8 × (high-water live count + 1) slots, and churn at a
/// constant live count allocates nothing once the table has grown to it.
///
/// Iteration visits the slot array in index order, then the overflow;
/// it is deterministic but is not insertion order.
///
/// # Example
///
/// ```
/// use recssd_sim::IdMap;
///
/// let mut inflight: IdMap<u64, &str> = IdMap::new();
/// inflight.insert(7, "read");
/// inflight.insert(8, "write");
/// assert_eq!(inflight.get(&7), Some(&"read"));
/// assert_eq!(inflight.remove(&7), Some("read"));
/// assert_eq!((inflight.len(), inflight[&8]), (1, "write"));
/// ```
pub struct IdMap<K, V> {
    /// Empty until the first insert, then a power of two long.
    slots: Vec<Option<(K, V)>>,
    /// Keys whose slot a later key took while the table was sparse.
    overflow: FxHashMap<K, V>,
    len: usize,
}

impl<K: IdKey, V> IdMap<K, V> {
    /// An empty map. Its first insert allocates room for 64 slots and
    /// opens a table of eight, which doubles in place up to 64.
    pub fn new() -> Self {
        IdMap {
            slots: Vec::new(),
            overflow: FxHashMap::default(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of the slot array (the overflow not counted).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, key: K) -> usize {
        key.id() as usize & self.slots.len().wrapping_sub(1)
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        if let Some(Some((k, v))) = self.slots.get(self.slot(*key)) {
            if k == key {
                return Some(v);
            }
        }
        if self.overflow.is_empty() {
            return None;
        }
        self.overflow.get(key)
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.slot(*key);
        if matches!(self.slots.get(i), Some(Some((k, _))) if k == key) {
            return self.slots[i].as_mut().map(|(_, v)| v);
        }
        if self.overflow.is_empty() {
            return None;
        }
        self.overflow.get_mut(key)
    }

    /// `true` when `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(v) = self.get_mut(&key) {
            return Some(std::mem::replace(v, value));
        }
        if self.slots.is_empty() {
            self.slots.reserve_exact(RESERVED_SLOTS);
            self.slots.resize_with(MIN_SLOTS, || None);
        }
        loop {
            let i = self.slot(key);
            if self.slots[i].is_none() {
                self.slots[i] = Some((key, value));
                break;
            }
            if self.len * 4 >= self.slots.len() {
                self.grow();
                continue;
            }
            let (k, v) = self.slots[i].replace((key, value)).expect("occupied");
            self.overflow.insert(k, v);
            break;
        }
        self.len += 1;
        None
    }

    /// Removes `key`'s entry, returning its value.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.slot(*key);
        let v = if matches!(self.slots.get(i), Some(Some((k, _))) if k == key) {
            self.slots[i].take().map(|(_, v)| v)
        } else if self.overflow.is_empty() {
            None
        } else {
            self.overflow.remove(key)
        };
        self.len -= v.is_some() as usize;
        v
    }

    /// Removes every entry; the slot array keeps its length.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.overflow.clear();
        self.len = 0;
    }

    /// Doubles the slot array in place: the entry in slot `j` stays or
    /// moves to the new slot `j + n`, which nothing else maps to. Overflow
    /// entries whose new slot is free move back in.
    fn grow(&mut self) {
        let n = self.slots.len();
        self.slots.resize_with(2 * n, || None);
        for j in 0..n {
            if let Some((k, _)) = &self.slots[j] {
                let i = self.slot(*k);
                if i != j {
                    self.slots[i] = self.slots[j].take();
                }
            }
        }
        if !self.overflow.is_empty() {
            for (k, v) in std::mem::take(&mut self.overflow) {
                let i = self.slot(k);
                if self.slots[i].is_none() {
                    self.slots[i] = Some((k, v));
                } else {
                    self.overflow.insert(k, v);
                }
            }
        }
    }

    /// Every entry: the slot array in index order, then the overflow.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        (self.slots.iter().flatten().map(|(k, v)| (k, v))).chain(self.overflow.iter())
    }

    /// Every key, in [`IdMap::iter`] order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in [`IdMap::iter`] order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: IdKey, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<K: IdKey, V> Index<&K> for IdMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` has no entry.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key not in IdMap")
    }
}

impl<K: IdKey + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn a_long_lived_entry_moves_to_the_overflow_instead_of_growing() {
        let mut m = IdMap::new();
        m.insert(0u64, 0u64);
        for id in 1..10_000 {
            m.insert(id, id);
            m.remove(&id);
        }
        assert_eq!((m.len(), m[&0]), (1, 0));
        assert!(m.slot_count() <= 16, "{} slots", m.slot_count());
    }

    #[test]
    fn crowded_ids_grow_the_table() {
        let mut m = IdMap::new();
        for id in 0..100u64 {
            m.insert(id, ());
        }
        assert_eq!(m.slot_count(), 128);
        assert!(m.overflow.is_empty());
    }

    /// One step of the reference-map property below, decoded from a
    /// `(kind, pick, key)` draw.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Insert the next counter id.
        Next,
        /// Remove the `n`-th smallest live key (modulo the live count).
        Remove(usize),
        /// Insert an arbitrary key.
        Arbitrary(u64),
        /// Skip the counter ahead, leaving every live entry behind.
        Jump(u64),
        Clear,
    }

    fn decode((kind, pick, key): (u8, usize, u64)) -> Step {
        match kind {
            0..=7 => Step::Next,
            8..=13 => Step::Remove(pick),
            14 => Step::Arbitrary(key),
            15 => Step::Jump(1 + key % 20_000),
            _ => Step::Clear,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random interleavings of increasing-id inserts, out-of-order
        /// removes, entries that outlive 10⁴ later ids, arbitrary keys and
        /// clears, against an `FxHashMap`: after every step the contents,
        /// the length and the iterated key set agree, and the slot array
        /// respects its bound.
        #[test]
        fn idmap_matches_a_reference_map(
            steps in proptest::collection::vec((0u8..17, 0usize..1000, 0u64..u64::MAX), 1..400),
        ) {
            let mut m: IdMap<u64, u64> = IdMap::new();
            let mut want: FxHashMap<u64, u64> = FxHashMap::default();
            let (mut next, mut high_water) = (0u64, 0usize);
            for (n, s) in steps.into_iter().map(decode).enumerate() {
                let v = n as u64;
                match s {
                    Step::Next => {
                        prop_assert_eq!(m.insert(next, v), want.insert(next, v));
                        next += 1;
                    }
                    Step::Remove(pick) if !want.is_empty() => {
                        let mut keys: Vec<u64> = want.keys().copied().collect();
                        keys.sort_unstable();
                        let k = keys[pick % keys.len()];
                        prop_assert_eq!(m.remove(&k), want.remove(&k));
                        prop_assert_eq!(m.remove(&k), None);
                    }
                    Step::Remove(_) => prop_assert_eq!(m.remove(&next), None),
                    Step::Arbitrary(k) => prop_assert_eq!(m.insert(k, v), want.insert(k, v)),
                    Step::Jump(by) => next += by,
                    Step::Clear => {
                        m.clear();
                        want.clear();
                    }
                }
                high_water = high_water.max(want.len());
                prop_assert_eq!(m.len(), want.len());
                prop_assert!(
                    m.slot_count() <= 8 * (high_water + 1),
                    "{} slots for a high water of {}", m.slot_count(), high_water
                );
                for (k, v) in &want {
                    prop_assert_eq!(m.get(k), Some(v));
                }
                prop_assert_eq!(m.get(&next), want.get(&next));
                let keys: BTreeSet<u64> = m.keys().copied().collect();
                prop_assert_eq!(keys.len(), m.len(), "a key iterated twice");
                prop_assert_eq!(keys, want.keys().copied().collect::<BTreeSet<u64>>());
            }
        }
    }
}
