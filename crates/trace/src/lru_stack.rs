//! An LRU stack with O(log n) access by depth.
//!
//! Ids sit in *time-ordered slots*: touching an id moves it to the next
//! unused slot, so a later slot always holds a more recently used id and
//! the stack order is the slot order read backwards. A Fenwick tree counts
//! the live slots, which turns "the id at depth `d`" and "the oldest id"
//! into a select-k descent; a map from id to slot answers "is this id on
//! the stack". When the slots run out the live ids are renumbered into a
//! prefix of an array twice their number, so a renumbering of n ids is paid
//! for by the n touches that must precede the next one.

use recssd_sim::FxHashMap;

/// Content of a vacated slot. No id equals it: ids are drawn from
/// `0..rows` and `rows` is a `u64`.
const HOLE: u64 = u64::MAX;

/// Slots of the smallest array (a power of two, as every array size is).
const MIN_SLOTS: usize = 64;

#[derive(Debug)]
pub(crate) struct LruStack {
    /// Ids by time of last use, `HOLE` where an id has moved on. Slots from
    /// `next` up are unused.
    slots: Vec<u64>,
    /// Fenwick tree over `slots`, one-based: node `i` counts the live slots
    /// among the `i & -i` slots that end at slot `i - 1`.
    live: Vec<u32>,
    slot_of: FxHashMap<u64, u32>,
    next: usize,
    len: usize,
}

impl LruStack {
    pub(crate) fn new() -> Self {
        LruStack {
            slots: vec![HOLE; MIN_SLOTS],
            live: vec![0; MIN_SLOTS + 1],
            slot_of: FxHashMap::default(),
            next: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Moves the id at `depth` (0 = most recently used) to the top and
    /// returns it.
    pub(crate) fn touch_depth(&mut self, depth: usize) -> u64 {
        assert!(depth < self.len, "depth {depth} beyond the stack");
        let slot = self.select(self.len - depth);
        let id = self.slots[slot];
        self.vacate(slot);
        self.push(id);
        id
    }

    /// Puts `id` on top, from wherever on the stack it was, if anywhere.
    pub(crate) fn touch_id(&mut self, id: u64) {
        debug_assert_ne!(id, HOLE);
        if let Some(&slot) = self.slot_of.get(&id) {
            self.vacate(slot as usize);
        }
        self.push(id);
    }

    /// Forgets the least recently used id.
    pub(crate) fn drop_oldest(&mut self) {
        let slot = self.select(1);
        self.slot_of.remove(&self.slots[slot]);
        self.vacate(slot);
    }

    /// The slot of the `k`-th oldest live id, `k` in `1..=len`: a descent
    /// from the root, which is the last node because sizes are powers of two.
    fn select(&self, k: usize) -> usize {
        let mut slot = 0;
        let mut left = k as u32;
        let mut step = self.slots.len();
        while step > 0 {
            let node = slot + step;
            if self.live[node] < left {
                slot = node;
                left -= self.live[node];
            }
            step >>= 1;
        }
        slot
    }

    fn vacate(&mut self, slot: usize) {
        self.slots[slot] = HOLE;
        self.len -= 1;
        let mut node = slot + 1;
        while node <= self.slots.len() {
            self.live[node] -= 1;
            node += node & node.wrapping_neg();
        }
    }

    fn push(&mut self, id: u64) {
        if self.next == self.slots.len() {
            self.renumber();
        }
        let slot = self.next;
        self.next += 1;
        self.slots[slot] = id;
        self.slot_of.insert(id, slot as u32);
        self.len += 1;
        let mut node = slot + 1;
        while node <= self.slots.len() {
            self.live[node] += 1;
            node += node & node.wrapping_neg();
        }
    }

    /// Moves the live ids, in order, to slots `0..len` of an array with at
    /// least as many unused slots again.
    fn renumber(&mut self) {
        let mut kept = 0;
        for slot in 0..self.next {
            let id = self.slots[slot];
            if id != HOLE {
                if kept != slot {
                    self.slots[kept] = id;
                    self.slot_of.insert(id, kept as u32);
                }
                kept += 1;
            }
        }
        debug_assert_eq!(kept, self.len);
        let size = (2 * kept).next_power_of_two().max(MIN_SLOTS);
        self.slots.truncate(kept);
        self.slots.resize(size, HOLE);
        self.next = kept;
        // Node `i` covers slots `i - (i & -i) .. i`, of which those below
        // `kept` are live.
        self.live.clear();
        self.live.extend((0..=size).map(|i| {
            let low = i & i.wrapping_neg();
            i.min(kept).saturating_sub(i - low) as u32
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stack from the top down.
    fn top_down(s: &LruStack) -> Vec<u64> {
        (1..=s.len()).rev().map(|k| s.slots[s.select(k)]).collect()
    }

    #[test]
    fn touches_reorder_like_an_lru_stack() {
        let mut s = LruStack::new();
        assert!(s.is_empty());
        for id in [10, 20, 30, 40] {
            s.touch_id(id);
        }
        assert_eq!(top_down(&s), [40, 30, 20, 10]);
        assert_eq!(s.touch_depth(2), 20);
        assert_eq!(top_down(&s), [20, 40, 30, 10]);
        assert_eq!(s.touch_depth(0), 20);
        assert_eq!(top_down(&s), [20, 40, 30, 10]);
        s.touch_id(30);
        assert_eq!(top_down(&s), [30, 20, 40, 10]);
        s.drop_oldest();
        assert_eq!(top_down(&s), [30, 20, 40]);
        s.touch_id(10);
        assert_eq!(top_down(&s), [10, 30, 20, 40]);
    }

    #[test]
    fn renumbering_keeps_order_and_grows_with_the_stack() {
        let mut s = LruStack::new();
        for id in 0..5 {
            s.touch_id(id);
        }
        // 5 ids churn through 64 slots, then 64 again: the array stays at
        // its floor however often they are renumbered.
        for i in 0..1_000 {
            s.touch_depth(i % 5);
        }
        assert_eq!(s.slots.len(), MIN_SLOTS);
        let before = top_down(&s);
        s.next = s.slots.len();
        s.touch_id(99);
        assert_eq!(top_down(&s)[1..], before);
        for id in 100..1_000 {
            s.touch_id(id);
        }
        assert_eq!(s.len(), 906);
        assert!(s.slots.len() >= 906 && s.slots.len() <= 4 * 906);
        assert_eq!(top_down(&s)[..3], [999, 998, 997]);
        assert_eq!(top_down(&s)[901..], before[..]);
    }

    #[test]
    #[should_panic(expected = "beyond the stack")]
    fn depth_past_the_bottom_panics() {
        let mut s = LruStack::new();
        s.touch_id(1);
        s.touch_depth(1);
    }
}
