//! Logical → physical mapping with validity tracking.

use std::ops::Range;

use recssd_flash::{FlashGeometry, Ppa};
use recssd_sim::FxHashMap;

use crate::Lpn;

/// The indirect mapping table plus the reverse (physical → logical) index
/// and per-block valid-page counts that greedy GC victim selection needs.
///
/// Bulk-preloaded regions (embedding-table images) are represented as
/// *identity intervals* rather than per-page entries, so a 16 GB table
/// costs a few words of mapping state. Host overwrites shadow the identity
/// interval with explicit entries.
///
/// # Example
///
/// ```
/// use recssd_flash::FlashGeometry;
/// use recssd_ftl::{Lpn, MappingTable};
///
/// let g = FlashGeometry::cosmos();
/// let mut map = MappingTable::new();
/// map.add_identity_range(0..1000);
/// assert_eq!(map.lookup(Lpn(5), &g), Some(g.ppa_of_index(5)));
/// assert_eq!(map.lookup(Lpn(1000), &g), None);
/// ```
#[derive(Debug, Default)]
pub struct MappingTable {
    // Fx-hashed: these maps key on page indices and sit on the per-read
    // lookup path, where SipHash is pure overhead.
    l2p: FxHashMap<u64, Ppa>,
    p2l: FxHashMap<u64, u64>,
    valid: FxHashMap<u64, u32>,
    /// Sorted and disjoint, no two touching.
    identity: Vec<Range<u64>>,
}

impl MappingTable {
    /// Creates an empty table (all logical pages unmapped).
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Registers `lpns` as identity-mapped (logical page *n* lives at
    /// physical linear index *n*). Used for preloaded bulk data. Ranges may
    /// arrive in any order and may overlap (a re-bound table is preloaded
    /// again over its old extent): the set is kept as sorted, disjoint
    /// ranges, a range absorbing those it overlaps or touches.
    pub fn add_identity_range(&mut self, lpns: Range<u64>) {
        if lpns.is_empty() {
            return;
        }
        let first = self.identity.partition_point(|r| r.end < lpns.start);
        let last = self.identity.partition_point(|r| r.start <= lpns.end);
        let merged = match &self.identity[first..last] {
            [] => lpns,
            [head, .., tail] | [head @ tail] => head.start.min(lpns.start)..tail.end.max(lpns.end),
        };
        self.identity.splice(first..last, [merged]);
    }

    /// `true` if `lpn` lies in an identity range: the first range to end
    /// past it is the only one that can hold it.
    fn in_identity(&self, lpn: u64) -> bool {
        let i = self.identity.partition_point(|r| r.end <= lpn);
        self.identity.get(i).is_some_and(|r| r.start <= lpn)
    }

    /// Physical location of `lpn`, if mapped.
    pub fn lookup(&self, lpn: Lpn, g: &FlashGeometry) -> Option<Ppa> {
        if let Some(&ppa) = self.l2p.get(&lpn.0) {
            return Some(ppa);
        }
        self.in_identity(lpn.0).then(|| g.ppa_of_index(lpn.0))
    }

    /// `true` if `lpn` has any mapping (explicit or identity).
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.l2p.contains_key(&lpn.0) || self.in_identity(lpn.0)
    }

    /// Logical page stored at physical index `ppa_index`, for GC liveness
    /// checks. Only allocator-written pages are tracked (identity regions
    /// are never garbage-collected).
    pub fn lpn_at(&self, ppa_index: u64) -> Option<Lpn> {
        self.p2l.get(&ppa_index).map(|&l| Lpn(l))
    }

    /// Points `lpn` at `ppa`, invalidating any previous explicit mapping.
    /// Valid counts are maintained for allocator-managed blocks.
    pub fn map(&mut self, lpn: Lpn, ppa: Ppa, g: &FlashGeometry) {
        let idx = g.linear_index(ppa);
        if let Some(old) = self.l2p.insert(lpn.0, ppa) {
            let old_idx = g.linear_index(old);
            self.p2l.remove(&old_idx);
            let old_block = g.block_index(old.channel, old.die, old.block);
            if let Some(v) = self.valid.get_mut(&old_block) {
                *v = v.saturating_sub(1);
            }
        }
        self.p2l.insert(idx, lpn.0);
        let block = g.block_index(ppa.channel, ppa.die, ppa.block);
        *self.valid.entry(block).or_insert(0) += 1;
    }

    /// GC relocation commit: remaps `lpn` from `old` to `new` only if the
    /// mapping still points at `old` (a concurrent host write wins
    /// otherwise). Returns `true` if the remap happened.
    pub fn remap_if_current(&mut self, lpn: Lpn, old: Ppa, new: Ppa, g: &FlashGeometry) -> bool {
        if self.lookup(lpn, g) != Some(old) {
            return false;
        }
        self.map(lpn, new, g);
        true
    }

    /// Number of valid (live) pages in the block, for victim selection.
    pub fn valid_in_block(&self, block_index: u64) -> u32 {
        self.valid.get(&block_index).copied().unwrap_or(0)
    }

    /// Drops all physical bookkeeping for an erased block.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block still holds valid pages — GC
    /// must relocate everything live before erasing.
    pub fn forget_block(&mut self, channel: u32, die: u32, block: u32, g: &FlashGeometry) {
        let bidx = g.block_index(channel, die, block);
        debug_assert_eq!(
            self.valid_in_block(bidx),
            0,
            "erasing block with live pages"
        );
        for page in 0..g.pages_per_block {
            let idx = g.linear_index(Ppa {
                channel,
                die,
                block,
                page,
            });
            self.p2l.remove(&idx);
        }
        self.valid.remove(&bidx);
    }

    /// Live `(lpn, ppa)` pairs currently stored in the block, in page
    /// order — the GC relocation work list.
    pub fn live_in_block(
        &self,
        channel: u32,
        die: u32,
        block: u32,
        g: &FlashGeometry,
    ) -> Vec<(Lpn, Ppa)> {
        let mut live = Vec::new();
        for page in 0..g.pages_per_block {
            let ppa = Ppa {
                channel,
                die,
                block,
                page,
            };
            let idx = g.linear_index(ppa);
            if let Some(&lpn) = self.p2l.get(&idx) {
                // An entry in p2l is live only if l2p agrees.
                if self.l2p.get(&lpn) == Some(&ppa) {
                    live.push((Lpn(lpn), ppa));
                }
            }
        }
        live
    }

    /// Number of explicitly mapped logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.l2p.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geometry() -> FlashGeometry {
        FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 8,
            pages_per_block: 4,
            page_bytes: 256,
        }
    }

    #[test]
    fn unmapped_lookup_is_none() {
        let g = small_geometry();
        let map = MappingTable::new();
        assert_eq!(map.lookup(Lpn(0), &g), None);
        assert!(!map.is_mapped(Lpn(0)));
    }

    #[test]
    fn map_and_lookup() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        let ppa = g.ppa_of_index(10);
        map.map(Lpn(3), ppa, &g);
        assert_eq!(map.lookup(Lpn(3), &g), Some(ppa));
        assert_eq!(map.lpn_at(10), Some(Lpn(3)));
        assert!(map.is_mapped(Lpn(3)));
        assert_eq!(map.mapped_pages(), 1);
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        let a = g.ppa_of_index(0);
        let b = g.ppa_of_index(1);
        map.map(Lpn(7), a, &g);
        let block_a = g.block_index(a.channel, a.die, a.block);
        assert_eq!(map.valid_in_block(block_a), 1);
        map.map(Lpn(7), b, &g);
        assert_eq!(map.lookup(Lpn(7), &g), Some(b));
        assert_eq!(map.valid_in_block(block_a), 0);
        assert_eq!(map.lpn_at(g.linear_index(a)), None, "stale p2l cleaned");
    }

    #[test]
    fn identity_range_lookup_and_shadowing() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        map.add_identity_range(0..16);
        assert_eq!(map.lookup(Lpn(9), &g), Some(g.ppa_of_index(9)));
        // Host overwrite shadows identity.
        let elsewhere = g.ppa_of_index(40);
        map.map(Lpn(9), elsewhere, &g);
        assert_eq!(map.lookup(Lpn(9), &g), Some(elsewhere));
        // Other identity pages unaffected.
        assert_eq!(map.lookup(Lpn(10), &g), Some(g.ppa_of_index(10)));
    }

    /// The pages of `0..limit` the table holds identity-mapped.
    fn identity_pages(map: &MappingTable, limit: u64) -> Vec<u64> {
        (0..limit).filter(|&l| map.is_mapped(Lpn(l))).collect()
    }

    #[test]
    fn identity_ranges_are_found_whatever_order_they_came_in() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        for r in [40..44, 4..8, 20..24, 30..30] {
            map.add_identity_range(r);
        }
        assert_eq!(map.identity, [4..8, 20..24, 40..44]);
        let want: Vec<u64> = (4..8).chain(20..24).chain(40..44).collect();
        assert_eq!(identity_pages(&map, 64), want);
        assert_eq!(map.lookup(Lpn(23), &g), Some(g.ppa_of_index(23)));
        assert_eq!(map.lookup(Lpn(24), &g), None);
        assert_eq!(map.lookup(Lpn(3), &g), None);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn adjacent_identity_ranges_join() {
        let mut map = MappingTable::new();
        map.add_identity_range(8..12);
        map.add_identity_range(4..8);
        map.add_identity_range(12..16);
        assert_eq!(map.identity, [4..16]);
        assert_eq!(identity_pages(&map, 32), (4..16).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_identity_ranges_merge() {
        let mut map = MappingTable::new();
        for r in [0..4, 10..14, 20..24, 30..34] {
            map.add_identity_range(r);
        }
        // A re-preload over a wider extent swallows what it covers...
        map.add_identity_range(8..26);
        assert_eq!(map.identity, [0..4, 8..26, 30..34]);
        // ...one inside an existing range changes nothing...
        map.add_identity_range(10..12);
        assert_eq!(map.identity, [0..4, 8..26, 30..34]);
        // ...and a partial overlap extends it.
        map.add_identity_range(2..9);
        assert_eq!(map.identity, [0..26, 30..34]);
        let want: Vec<u64> = (0..26).chain(30..34).collect();
        assert_eq!(identity_pages(&map, 40), want);
    }

    #[test]
    fn remap_if_current_detects_concurrent_overwrite() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        let old = g.ppa_of_index(0);
        let gc_new = g.ppa_of_index(20);
        let host_new = g.ppa_of_index(30);
        map.map(Lpn(1), old, &g);
        // Host writes during GC relocation.
        map.map(Lpn(1), host_new, &g);
        assert!(!map.remap_if_current(Lpn(1), old, gc_new, &g));
        assert_eq!(map.lookup(Lpn(1), &g), Some(host_new));
        // Without interference, the remap commits.
        map.map(Lpn(2), old, &g);
        assert!(map.remap_if_current(Lpn(2), old, gc_new, &g));
        assert_eq!(map.lookup(Lpn(2), &g), Some(gc_new));
    }

    #[test]
    fn live_in_block_lists_only_current_pages() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        // Three pages in (0,0,0): lpn 1 at page 0, lpn 2 at page 1; lpn 1
        // is then overwritten elsewhere, leaving only lpn 2 live here.
        let p0 = Ppa {
            channel: 0,
            die: 0,
            block: 0,
            page: 0,
        };
        let p1 = Ppa {
            channel: 0,
            die: 0,
            block: 0,
            page: 1,
        };
        let away = Ppa {
            channel: 1,
            die: 0,
            block: 0,
            page: 0,
        };
        map.map(Lpn(1), p0, &g);
        map.map(Lpn(2), p1, &g);
        map.map(Lpn(1), away, &g);
        let live = map.live_in_block(0, 0, 0, &g);
        assert_eq!(live, vec![(Lpn(2), p1)]);
    }

    #[test]
    fn forget_block_clears_reverse_entries() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        let p0 = Ppa {
            channel: 0,
            die: 0,
            block: 2,
            page: 0,
        };
        map.map(Lpn(5), p0, &g);
        map.map(Lpn(5), g.ppa_of_index(60), &g); // invalidate old copy
        map.forget_block(0, 0, 2, &g);
        assert_eq!(map.valid_in_block(g.block_index(0, 0, 2)), 0);
        assert_eq!(map.lpn_at(g.linear_index(p0)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "live pages")]
    fn forget_block_with_live_pages_panics_in_debug() {
        let g = small_geometry();
        let mut map = MappingTable::new();
        map.map(
            Lpn(1),
            Ppa {
                channel: 0,
                die: 0,
                block: 0,
                page: 0,
            },
            &g,
        );
        map.forget_block(0, 0, 0, &g);
    }
}
