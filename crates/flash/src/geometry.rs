//! Physical organisation of the NAND array and physical page addressing.

use std::fmt;
use std::ops::Range;

/// Physical shape of the flash array.
///
/// # Example
///
/// ```
/// use recssd_flash::FlashGeometry;
/// let g = FlashGeometry::cosmos();
/// assert_eq!(g.channels, 8);
/// assert_eq!(g.page_bytes, 16 * 1024);
/// assert!(g.capacity_bytes() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of independent channels (shared buses).
    pub channels: u32,
    /// NAND dies attached to each channel.
    pub dies_per_channel: u32,
    /// Erase blocks per die.
    pub blocks_per_die: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Bytes per flash page (the device's atomic read/program unit).
    pub page_bytes: usize,
}

impl FlashGeometry {
    /// Cosmos+ OpenSSD-like geometry: 8 channels, 4 dies/channel, 16 KB
    /// pages, 2 TiB raw capacity (the development platform of §5 "has a
    /// 2TB capacity").
    pub fn cosmos() -> Self {
        FlashGeometry {
            channels: 8,
            dies_per_channel: 4,
            blocks_per_die: 16384,
            pages_per_block: 256,
            page_bytes: 16 * 1024,
        }
    }

    /// Total number of physical pages in the array.
    pub fn total_pages(&self) -> u64 {
        self.channels as u64
            * self.dies_per_channel as u64
            * self.blocks_per_die as u64
            * self.pages_per_block as u64
    }

    /// Total number of dies.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Total number of erase blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_dies() as u64 * self.blocks_per_die as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// `true` if `ppa` addresses a page inside this geometry.
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.channel < self.channels
            && ppa.die < self.dies_per_channel
            && ppa.block < self.blocks_per_die
            && ppa.page < self.pages_per_block
    }

    /// Linearises a physical page address into `0..total_pages()` in
    /// *stripe order*: consecutive indices advance channel first, then die,
    /// then page/block. A contiguous index range therefore spreads across
    /// all channels and dies — the layout a log-structured FTL produces
    /// when bulk data is written sequentially, and the layout that lets
    /// the SSD exploit its internal parallelism (§2.2 of the paper:
    /// "logical blocks can be striped over multiple flash memory
    /// packages").
    ///
    /// # Panics
    ///
    /// Panics if `ppa` is outside the geometry.
    pub fn linear_index(&self, ppa: Ppa) -> u64 {
        assert!(self.contains(ppa), "ppa out of range: {ppa}");
        let counter = ppa.block as u64 * self.pages_per_block as u64 + ppa.page as u64;
        (counter * self.dies_per_channel as u64 + ppa.die as u64) * self.channels as u64
            + ppa.channel as u64
    }

    /// Inverse of [`FlashGeometry::linear_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_pages()`.
    pub fn ppa_of_index(&self, index: u64) -> Ppa {
        assert!(index < self.total_pages(), "linear page index out of range");
        let channel = (index % self.channels as u64) as u32;
        let rest = index / self.channels as u64;
        let die = (rest % self.dies_per_channel as u64) as u32;
        let counter = rest / self.dies_per_channel as u64;
        let page = (counter % self.pages_per_block as u64) as u32;
        let block = (counter / self.pages_per_block as u64) as u32;
        Ppa {
            channel,
            die,
            block,
            page,
        }
    }

    /// The channel a stripe-ordered linear page index lands on — the
    /// channel→engine affinity key for per-channel compute engines.
    /// Identical to `ppa_of_index(index).channel` but defined for any
    /// index (it only takes the index modulo the channel count), so
    /// never-written logical pages still route deterministically.
    pub fn stripe_channel(&self, index: u64) -> u32 {
        (index % self.channels as u64) as u32
    }

    /// Linear index of a (channel, die, block) triple in `0..total_blocks()`.
    pub fn block_index(&self, channel: u32, die: u32, block: u32) -> u64 {
        (channel as u64 * self.dies_per_channel as u64 + die as u64) * self.blocks_per_die as u64
            + block as u64
    }

    /// Every erase block the linear page range `pages` touches, once each,
    /// as the address of the block's last page inside the range — what a
    /// bulk load of the range leaves behind. Blocks come lane by lane
    /// (channel-major, then die), ascending within a lane.
    pub fn covered_blocks(&self, pages: Range<u64>) -> impl Iterator<Item = Ppa> {
        let g = *self;
        // Linear indices stripe channel-first: the page counters of a
        // (channel, die) lane inside `pages` are the m with
        // `offset + m * stride` in the range, i.e. `m_first..m_end`.
        let stride = g.channels as u64 * g.dies_per_channel as u64;
        let ppb = g.pages_per_block as u64;
        let lanes = (0..g.channels).flat_map(move |c| (0..g.dies_per_channel).map(move |d| (c, d)));
        lanes.flat_map(move |(channel, die)| {
            let offset = die as u64 * g.channels as u64 + channel as u64;
            let m_first = pages.start.saturating_sub(offset).div_ceil(stride);
            let m_end = pages.end.saturating_sub(offset).div_ceil(stride);
            let blocks = if m_first < m_end {
                m_first / ppb..(m_end - 1) / ppb + 1
            } else {
                0..0
            };
            blocks.map(move |b| Ppa {
                channel,
                die,
                block: b as u32,
                page: ((m_end - 1).min((b + 1) * ppb - 1) % ppb) as u32,
            })
        })
    }
}

/// A physical page address.
///
/// # Example
///
/// ```
/// use recssd_flash::{FlashGeometry, Ppa};
/// let g = FlashGeometry::cosmos();
/// let ppa = Ppa { channel: 3, die: 1, block: 10, page: 42 };
/// assert_eq!(g.ppa_of_index(g.linear_index(ppa)), ppa);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Channel index.
    pub channel: u32,
    /// Die index within the channel.
    pub die: u32,
    /// Erase-block index within the die.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/die{}/blk{}/pg{}",
            self.channel, self.die, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmos_capacity_is_2tib() {
        let g = FlashGeometry::cosmos();
        // 8 * 4 * 16384 * 256 pages * 16KB = 2 TiB, the Cosmos+ capacity.
        assert_eq!(g.total_pages(), 134_217_728);
        assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024 * 1024 * 1024);
        assert_eq!(g.total_dies(), 32);
        assert_eq!(g.total_blocks(), 32 * 16384);
    }

    #[test]
    fn linear_index_round_trips() {
        let g = FlashGeometry {
            channels: 3,
            dies_per_channel: 2,
            blocks_per_die: 5,
            pages_per_block: 7,
            page_bytes: 512,
        };
        for idx in 0..g.total_pages() {
            let ppa = g.ppa_of_index(idx);
            assert!(g.contains(ppa));
            assert_eq!(g.linear_index(ppa), idx);
        }
    }

    #[test]
    fn linear_index_stripes_across_channels_first() {
        let g = FlashGeometry::cosmos();
        // Consecutive indices advance the channel, spreading a contiguous
        // region across all buses.
        for i in 0..g.channels as u64 {
            assert_eq!(g.ppa_of_index(i).channel, i as u32);
            assert_eq!(g.ppa_of_index(i).die, 0);
        }
        // After all channels, the die advances.
        assert_eq!(g.ppa_of_index(g.channels as u64).die, 1);
        // One full stripe (all channels × dies) later, the page advances.
        let stride = g.channels as u64 * g.dies_per_channel as u64;
        assert_eq!(g.ppa_of_index(stride).page, 1);
        assert_eq!(g.ppa_of_index(stride).channel, 0);
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = FlashGeometry::cosmos();
        assert!(!g.contains(Ppa {
            channel: 8,
            die: 0,
            block: 0,
            page: 0
        }));
        assert!(!g.contains(Ppa {
            channel: 0,
            die: 4,
            block: 0,
            page: 0
        }));
        assert!(!g.contains(Ppa {
            channel: 0,
            die: 0,
            block: 16384,
            page: 0
        }));
        assert!(!g.contains(Ppa {
            channel: 0,
            die: 0,
            block: 0,
            page: 256
        }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn linear_index_panics_outside_geometry() {
        let g = FlashGeometry::cosmos();
        g.linear_index(Ppa {
            channel: 99,
            die: 0,
            block: 0,
            page: 0,
        });
    }

    #[test]
    fn block_index_is_dense() {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 3,
            blocks_per_die: 4,
            pages_per_block: 1,
            page_bytes: 16,
        };
        let mut seen = std::collections::HashSet::new();
        for c in 0..2 {
            for d in 0..3 {
                for b in 0..4 {
                    seen.insert(g.block_index(c, d, b));
                }
            }
        }
        assert_eq!(seen.len(), 24);
        assert_eq!(*seen.iter().max().unwrap(), 23);
    }

    #[test]
    fn ppa_display_is_readable() {
        let ppa = Ppa {
            channel: 1,
            die: 2,
            block: 3,
            page: 4,
        };
        assert_eq!(ppa.to_string(), "ch1/die2/blk3/pg4");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// The lane walk a preload runs agrees with the definition: the
        /// blocks holding some page whose linear index lies in the range,
        /// each with the highest such page, found page by page.
        #[test]
        fn covered_blocks_match_a_per_page_walk(
            shape in (1u32..5, 1u32..4, 1u32..5, 1u32..9),
            ends in (0u64..1000, 0u64..1000),
        ) {
            let (channels, dies_per_channel, blocks_per_die, pages_per_block) = shape;
            let g = FlashGeometry {
                channels,
                dies_per_channel,
                blocks_per_die,
                pages_per_block,
                page_bytes: 16,
            };
            let total = g.total_pages();
            let (a, b) = (ends.0 % (total + 1), ends.1 % (total + 1));
            let pages = a.min(b)..a.max(b);
            let mut want = std::collections::BTreeMap::new();
            for channel in 0..channels {
                for die in 0..dies_per_channel {
                    for block in 0..blocks_per_die {
                        for page in 0..pages_per_block {
                            let ppa = Ppa { channel, die, block, page };
                            if pages.contains(&g.linear_index(ppa)) {
                                want.insert((channel, die, block), page);
                            }
                        }
                    }
                }
            }
            let walked: Vec<Ppa> = g.covered_blocks(pages.clone()).collect();
            let got: std::collections::BTreeMap<_, _> =
                walked.iter().map(|p| ((p.channel, p.die, p.block), p.page)).collect();
            proptest::prop_assert_eq!(walked.len(), got.len(), "a block came twice");
            proptest::prop_assert_eq!(got, want, "range {:?}", pages);
        }
    }
}
