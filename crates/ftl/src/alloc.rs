//! Log-structured page allocation with wear-aware free-block selection.
//!
//! A die's free blocks are kept in two parts. Blocks that were never
//! erased — at birth all of them — are sorted, disjoint block ranges, one
//! range `0..blocks_per_die` per die to begin with; blocks that came back
//! from an erase are a set ordered by `(erase_count, block)`. A full-size
//! Cosmos+ drive has 524 288 blocks, nearly all of which no run ever
//! touches, so an allocator is built and dropped in O(dies) rather than
//! O(blocks).
//!
//! The split does not change the order blocks are handed out in, which is
//! `(erase_count, block)` ascending over the whole die: a never-erased
//! block has count 0 and an erased one at least 1, so every fresh block
//! sorts before every recycled one, and within the ranges the lowest block
//! is first.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

use recssd_flash::{FlashGeometry, Ppa};
use recssd_sim::FxHashMap;

/// Allocates physical pages for the log-structured write path.
///
/// Each die keeps one *open block* whose pages are handed out sequentially
/// (satisfying NAND's in-order program rule); consecutive allocations
/// round-robin across dies so host writes stripe over every channel.
/// Free blocks are selected lowest-erase-count first, which is the wear
/// leveling policy; erase counts are tracked per block.
///
/// # Example
///
/// ```
/// use recssd_flash::FlashGeometry;
/// use recssd_ftl::BlockAllocator;
///
/// let g = FlashGeometry::cosmos();
/// let mut alloc = BlockAllocator::new(g);
/// let a = alloc.alloc_page().unwrap();
/// let b = alloc.alloc_page().unwrap();
/// assert_ne!((a.channel, a.die), (b.channel, b.die), "writes stripe");
/// ```
#[derive(Debug)]
pub struct BlockAllocator {
    g: FlashGeometry,
    /// Per die: the free blocks.
    free: Vec<FreeBlocks>,
    /// Per die: the block currently accepting appends.
    open: Vec<Option<OpenBlock>>,
    /// Per die: fully programmed blocks (GC victim candidates).
    used: Vec<Vec<u32>>,
    erase_counts: FxHashMap<u64, u64>,
    rr: usize,
    total_erases: u64,
}

/// The free blocks of one die, lowest `(erase_count, block)` first.
#[derive(Debug)]
struct FreeBlocks {
    /// Never-erased blocks: non-empty ranges, ascending and disjoint.
    fresh: VecDeque<Range<u32>>,
    /// Erased blocks by `(erase_count, block)`; every count is at least 1.
    recycled: BTreeSet<(u64, u32)>,
}

impl FreeBlocks {
    fn all_fresh(blocks: u32) -> Self {
        FreeBlocks {
            fresh: std::iter::once(0..blocks).collect(),
            recycled: BTreeSet::new(),
        }
    }

    fn len(&self) -> usize {
        let fresh: usize = self.fresh.iter().map(|r| r.len()).sum();
        fresh + self.recycled.len()
    }

    /// Takes the free block that sorts first.
    fn pop_first(&mut self) -> Option<u32> {
        let Some(range) = self.fresh.front_mut() else {
            return self.recycled.pop_first().map(|(_, block)| block);
        };
        let block = range.start;
        range.start += 1;
        if range.start == range.end {
            self.fresh.pop_front();
        }
        Some(block)
    }

    /// Takes `block`, erased `count` times so far, out of the free blocks;
    /// `false` if it is not among them.
    fn remove(&mut self, count: u64, block: u32) -> bool {
        if count > 0 {
            return self.recycled.remove(&(count, block));
        }
        // The one range that can hold `block` is the first to end past it.
        let i = self.fresh.partition_point(|r| r.end <= block);
        let Some(range) = self.fresh.get_mut(i).filter(|r| r.start <= block) else {
            return false;
        };
        let (head, tail) = (range.start..block, block + 1..range.end);
        match (head.is_empty(), tail.is_empty()) {
            (false, false) => {
                *range = head;
                self.fresh.insert(i + 1, tail);
            }
            (false, true) => *range = head,
            (true, false) => *range = tail,
            (true, true) => drop(self.fresh.remove(i)),
        }
        true
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    block: u32,
    next_page: u32,
}

impl BlockAllocator {
    /// Creates an allocator with every block free.
    pub fn new(g: FlashGeometry) -> Self {
        let dies = g.total_dies() as usize;
        BlockAllocator {
            free: (0..dies)
                .map(|_| FreeBlocks::all_fresh(g.blocks_per_die))
                .collect(),
            open: vec![None; dies],
            used: vec![Vec::new(); dies],
            erase_counts: FxHashMap::default(),
            rr: 0,
            total_erases: 0,
            g,
        }
    }

    fn die_linear(&self, channel: u32, die: u32) -> usize {
        (channel * self.g.dies_per_channel + die) as usize
    }

    fn die_coords(&self, die_linear: usize) -> (u32, u32) {
        (
            die_linear as u32 / self.g.dies_per_channel,
            die_linear as u32 % self.g.dies_per_channel,
        )
    }

    /// Withdraws a block from circulation (e.g. because it holds preloaded
    /// data). Reserved blocks are never allocated or GC'd.
    ///
    /// # Panics
    ///
    /// Panics if the block is currently open or already used.
    pub fn reserve(&mut self, channel: u32, die: u32, block: u32) {
        let d = self.die_linear(channel, die);
        let count = self
            .erase_counts
            .get(&self.g.block_index(channel, die, block))
            .copied()
            .unwrap_or(0);
        let removed = self.free[d].remove(count, block);
        assert!(
            removed,
            "reserve of non-free block ch{channel}/die{die}/blk{block}"
        );
    }

    /// Allocates the next physical page, striping round-robin across dies.
    /// Returns `None` when every die is out of space (foreground writes
    /// must then stall for GC).
    pub fn alloc_page(&mut self) -> Option<Ppa> {
        let dies = self.free.len();
        for attempt in 0..dies {
            let d = (self.rr + attempt) % dies;
            if let Some(ppa) = self.alloc_in_die(d) {
                self.rr = (d + 1) % dies;
                return Some(ppa);
            }
        }
        None
    }

    /// Allocates a page in a specific die if possible.
    pub fn alloc_in_die(&mut self, die_linear: usize) -> Option<Ppa> {
        if self.open[die_linear].is_none() {
            let block = self.free[die_linear].pop_first()?;
            self.open[die_linear] = Some(OpenBlock {
                block,
                next_page: 0,
            });
        }
        let (channel, die) = self.die_coords(die_linear);
        let ob = self.open[die_linear].as_mut().expect("opened above");
        let ppa = Ppa {
            channel,
            die,
            block: ob.block,
            page: ob.next_page,
        };
        ob.next_page += 1;
        if ob.next_page == self.g.pages_per_block {
            self.used[die_linear].push(ob.block);
            self.open[die_linear] = None;
        }
        Some(ppa)
    }

    /// Free blocks remaining in a die.
    pub fn free_blocks_in_die(&self, die_linear: usize) -> usize {
        self.free[die_linear].len()
    }

    /// Fully programmed blocks in a die (GC victim candidates), in fill
    /// order.
    pub fn used_blocks_in_die(&self, die_linear: usize) -> &[u32] {
        &self.used[die_linear]
    }

    /// Removes `block` from the die's used list when GC claims it.
    ///
    /// # Panics
    ///
    /// Panics if the block is not in the used list.
    pub fn take_used(&mut self, die_linear: usize, block: u32) {
        let pos = self.used[die_linear]
            .iter()
            .position(|&b| b == block)
            .expect("GC victim must be a used block");
        self.used[die_linear].remove(pos);
    }

    /// Returns an erased block to the free pool and bumps its wear count.
    pub fn on_erase(&mut self, channel: u32, die: u32, block: u32) {
        let d = self.die_linear(channel, die);
        let bidx = self.g.block_index(channel, die, block);
        let count = self.erase_counts.entry(bidx).or_insert(0);
        *count += 1;
        self.total_erases += 1;
        self.free[d].recycled.insert((*count, block));
    }

    /// Erase count of one block.
    pub fn erase_count(&self, channel: u32, die: u32, block: u32) -> u64 {
        self.erase_counts
            .get(&self.g.block_index(channel, die, block))
            .copied()
            .unwrap_or(0)
    }

    /// Total erases performed (wear figure of merit).
    pub fn total_erases(&self) -> u64 {
        self.total_erases
    }

    /// `(min, max)` erase count over the *recycled* blocks of a die —
    /// wear-leveling spread. Returns `None` if nothing was ever erased.
    pub fn wear_spread(&self, die_linear: usize) -> Option<(u64, u64)> {
        let (channel, die) = self.die_coords(die_linear);
        let counts: Vec<u64> = (0..self.g.blocks_per_die)
            .map(|b| self.erase_count(channel, die, b))
            .filter(|&c| c > 0)
            .collect();
        let min = counts.iter().min()?;
        let max = counts.iter().max()?;
        Some((*min, *max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashGeometry {
        FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 4,
            pages_per_block: 4,
            page_bytes: 256,
        }
    }

    #[test]
    fn allocations_stripe_round_robin() {
        let mut a = BlockAllocator::new(small());
        let dies: Vec<(u32, u32)> = (0..4)
            .map(|_| a.alloc_page().unwrap())
            .map(|p| (p.channel, p.die))
            .collect();
        let distinct: std::collections::HashSet<_> = dies.iter().collect();
        assert_eq!(distinct.len(), 4, "4 allocations hit 4 distinct dies");
    }

    #[test]
    fn pages_within_open_block_are_sequential() {
        let mut a = BlockAllocator::new(small());
        let mut pages = Vec::new();
        for _ in 0..8 {
            let p = a.alloc_page().unwrap();
            if (p.channel, p.die) == (0, 0) {
                pages.push(p.page);
            }
        }
        assert_eq!(pages, vec![0, 1]);
    }

    #[test]
    fn full_block_moves_to_used_list() {
        let mut a = BlockAllocator::new(small());
        // Fill die (0,0)'s open block: 4 pages.
        for _ in 0..4 {
            a.alloc_in_die(0).unwrap();
        }
        assert_eq!(a.used_blocks_in_die(0), &[0]);
        assert_eq!(a.free_blocks_in_die(0), 3);
        // Next allocation in the die opens a new block.
        let p = a.alloc_in_die(0).unwrap();
        assert_eq!(p.block, 1);
        assert_eq!(p.page, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let g = small();
        let mut a = BlockAllocator::new(g);
        let total = g.total_pages();
        for _ in 0..total {
            assert!(a.alloc_page().is_some());
        }
        assert_eq!(a.alloc_page(), None);
    }

    #[test]
    fn erase_recycles_block_and_counts_wear() {
        let mut a = BlockAllocator::new(small());
        for _ in 0..4 {
            a.alloc_in_die(0).unwrap();
        }
        a.take_used(0, 0);
        a.on_erase(0, 0, 0);
        assert_eq!(a.erase_count(0, 0, 0), 1);
        assert_eq!(a.free_blocks_in_die(0), 4);
        assert_eq!(a.total_erases(), 1);
        assert_eq!(a.wear_spread(0), Some((1, 1)));
    }

    #[test]
    fn wear_leveling_prefers_cold_blocks() {
        let mut a = BlockAllocator::new(small());
        // Fill and erase block 0 of die 0; its erase count rises to 1.
        for _ in 0..4 {
            let p = a.alloc_in_die(0).unwrap();
            assert_eq!(p.block, 0);
        }
        a.take_used(0, 0);
        a.on_erase(0, 0, 0);
        // The free set orders by erase count, so the next opened block is a
        // cold one (count 0), not the just-erased block 0.
        let p = a.alloc_in_die(0).unwrap();
        assert_eq!(p.block, 1, "cold block preferred over hot block 0");
    }

    #[test]
    fn reserved_blocks_never_allocated() {
        let g = small();
        let mut a = BlockAllocator::new(g);
        a.reserve(0, 0, 0);
        a.reserve(0, 0, 1);
        a.reserve(0, 0, 2);
        a.reserve(0, 0, 3);
        // Die (0,0) has nothing left; allocation falls through to others.
        for _ in 0..12 {
            let p = a.alloc_page().unwrap();
            assert_ne!((p.channel, p.die), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "non-free block")]
    fn double_reserve_panics() {
        let mut a = BlockAllocator::new(small());
        a.reserve(0, 0, 0);
        a.reserve(0, 0, 0);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn reserve_splits_and_trims_fresh_ranges() {
        let mut f = FreeBlocks::all_fresh(8);
        assert!(f.remove(0, 3), "middle: split");
        assert!(f.remove(0, 0), "front: trim");
        assert!(f.remove(0, 7), "back: trim");
        assert!(f.remove(0, 2) && f.remove(0, 1), "range emptied: dropped");
        assert_eq!(f.fresh, [4..7]);
        assert!(!f.remove(0, 3) && !f.remove(0, 7) && !f.remove(0, 8));
        assert!(!f.remove(1, 5), "a never-erased block has count 0");
        assert_eq!(f.len(), 3);
        assert_eq!(
            [f.pop_first(), f.pop_first(), f.pop_first(), f.pop_first()],
            [Some(4), Some(5), Some(6), None]
        );
    }

    /// The allocator with every free block in one eager
    /// `BTreeSet<(erase_count, block)>` per die, as it was before the
    /// fresh-range split: the reference for the allocation order.
    struct EagerAllocator {
        g: FlashGeometry,
        free: Vec<BTreeSet<(u64, u32)>>,
        open: Vec<Option<OpenBlock>>,
        used: Vec<Vec<u32>>,
        erase_counts: FxHashMap<u64, u64>,
        rr: usize,
    }

    impl EagerAllocator {
        fn new(g: FlashGeometry) -> Self {
            let dies = g.total_dies() as usize;
            EagerAllocator {
                free: (0..dies)
                    .map(|_| (0..g.blocks_per_die).map(|b| (0u64, b)).collect())
                    .collect(),
                open: vec![None; dies],
                used: vec![Vec::new(); dies],
                erase_counts: FxHashMap::default(),
                rr: 0,
                g,
            }
        }

        fn coords(&self, die_linear: usize) -> (u32, u32) {
            let per = self.g.dies_per_channel;
            (die_linear as u32 / per, die_linear as u32 % per)
        }

        fn erase_count(&self, die_linear: usize, block: u32) -> u64 {
            let (channel, die) = self.coords(die_linear);
            let bidx = self.g.block_index(channel, die, block);
            self.erase_counts.get(&bidx).copied().unwrap_or(0)
        }

        /// `false` where the allocator of record panics.
        fn reserve(&mut self, die_linear: usize, block: u32) -> bool {
            let count = self.erase_count(die_linear, block);
            self.free[die_linear].remove(&(count, block))
        }

        fn alloc_page(&mut self) -> Option<Ppa> {
            let dies = self.free.len();
            for attempt in 0..dies {
                let d = (self.rr + attempt) % dies;
                if let Some(ppa) = self.alloc_in_die(d) {
                    self.rr = (d + 1) % dies;
                    return Some(ppa);
                }
            }
            None
        }

        fn alloc_in_die(&mut self, die_linear: usize) -> Option<Ppa> {
            if self.open[die_linear].is_none() {
                let &(count, block) = self.free[die_linear].iter().next()?;
                self.free[die_linear].remove(&(count, block));
                self.open[die_linear] = Some(OpenBlock {
                    block,
                    next_page: 0,
                });
            }
            let (channel, die) = self.coords(die_linear);
            let ob = self.open[die_linear].as_mut().expect("opened above");
            let ppa = Ppa {
                channel,
                die,
                block: ob.block,
                page: ob.next_page,
            };
            ob.next_page += 1;
            if ob.next_page == self.g.pages_per_block {
                self.used[die_linear].push(ob.block);
                self.open[die_linear] = None;
            }
            Some(ppa)
        }

        /// `take_used` followed by `on_erase`.
        fn recycle(&mut self, die_linear: usize, block: u32) {
            self.used[die_linear].retain(|&b| b != block);
            let (channel, die) = self.coords(die_linear);
            let count = self
                .erase_counts
                .entry(self.g.block_index(channel, die, block))
                .or_insert(0);
            *count += 1;
            self.free[die_linear].insert((*count, block));
        }

        fn wear_spread(&self, die_linear: usize) -> Option<(u64, u64)> {
            let counts = (0..self.g.blocks_per_die)
                .map(|b| self.erase_count(die_linear, b))
                .filter(|&c| c > 0);
            Some((counts.clone().min()?, counts.max()?))
        }
    }

    proptest::proptest! {
        /// Random reserve / allocate / garbage-collect sequences hand out
        /// the same pages, in the same order, as the eager free set.
        #[test]
        fn matches_the_eager_free_set(
            ops in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 0..600),
        ) {
            let g = FlashGeometry {
                channels: 2,
                dies_per_channel: 2,
                blocks_per_die: 8,
                pages_per_block: 3,
                page_bytes: 256,
            };
            let mut new = BlockAllocator::new(g);
            let mut old = EagerAllocator::new(g);
            for (op, a, b) in ops {
                let d = a as usize % 4;
                let (channel, die) = old.coords(d);
                match op {
                    0 | 1 => {
                        let block = b % g.blocks_per_die;
                        let count = new.erase_count(channel, die, block);
                        if old.reserve(d, block) {
                            new.reserve(channel, die, block);
                        } else {
                            assert!(!new.free[d].remove(count, block), "{block} is not free");
                        }
                    }
                    2 => assert_eq!(new.alloc_in_die(d), old.alloc_in_die(d)),
                    3 | 4 => {
                        if !old.used[d].is_empty() {
                            let block = old.used[d][b as usize % old.used[d].len()];
                            new.take_used(d, block);
                            new.on_erase(channel, die, block);
                            old.recycle(d, block);
                        }
                    }
                    _ => assert_eq!(new.alloc_page(), old.alloc_page()),
                }
                for d in 0..4 {
                    assert_eq!(new.free_blocks_in_die(d), old.free[d].len());
                    assert_eq!(new.used_blocks_in_die(d), old.used[d]);
                    assert_eq!(new.wear_spread(d), old.wear_spread(d));
                }
            }
        }
    }
}
