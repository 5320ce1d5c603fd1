//! Backing storage for flash page contents.
//!
//! Two backing modes coexist:
//!
//! * **Explicit** pages were written through the program path; their bytes
//!   are stored (trailing zeros trimmed, so a 16 KB page holding one 128 B
//!   embedding vector costs ~128 B of host memory).
//! * **Oracle** pages belong to a preloaded region whose contents are
//!   synthesised on demand by a [`PageOracle`]. This is how multi-GB
//!   embedding-table images are "pre-written" to the device without
//!   materialising them, mirroring how the paper preloads tables onto the
//!   OpenSSD before timing runs.
//!
//! Explicit data shadows oracle data; an erase tombstones oracle pages.
//!
//! Deviation from real NAND: unwritten pages read as zeros (not 0xFF). The
//! workloads in this reproduction never read erased pages for data, and
//! zero-fill lets us trim trailing zeros when storing sparse page images.

use std::ops::Range;
use std::sync::Arc;

use recssd_sim::{FxHashMap, FxHashSet, PageImage, PagePool};

/// Synthesises the contents of preloaded pages on demand.
///
/// Implementations must be deterministic: the same page index must always
/// produce the same bytes, because a page may be regenerated many times.
pub trait PageOracle: std::fmt::Debug + Send + Sync {
    /// Fills `out` with the contents of the page at linear index
    /// `page_index` (see
    /// [`FlashGeometry::linear_index`](crate::FlashGeometry::linear_index)).
    /// `out` is pre-zeroed and holds the page's leading bytes: at least
    /// [`PageOracle::filled_prefix`] of them, the whole page at most.
    fn fill_page(&self, page_index: u64, out: &mut [u8]);

    /// Upper bound on the prefix of the page [`PageOracle::fill_page`]
    /// writes for `page_index`; the page is zero past it. A page image
    /// backs only this prefix, so an oracle that knows its extent (one
    /// 128 B vector on a 16 KB page) costs that much host memory a cached
    /// page, not `page_bytes`. The default claims the whole page, which is
    /// always correct.
    fn filled_prefix(&self, _page_index: u64, page_bytes: usize) -> usize {
        page_bytes
    }
}

/// Where the bytes of one page come from.
enum Source<'a> {
    /// Never written, erased, or outside every oracle: all zeros.
    Zero,
    Explicit(&'a [u8]),
    Oracle(&'a dyn PageOracle),
}

impl Source<'_> {
    /// Writes the page into the all-zero `out`, its leading bytes.
    fn fill(&self, page_index: u64, out: &mut [u8]) {
        match self {
            Source::Zero => {}
            Source::Explicit(data) => out[..data.len()].copy_from_slice(data),
            Source::Oracle(oracle) => oracle.fill_page(page_index, out),
        }
    }
}

/// Sparse, oracle-backed storage of page contents.
#[derive(Debug, Default)]
pub struct PageStore {
    explicit: FxHashMap<u64, Box<[u8]>>,
    oracles: Vec<(Range<u64>, Arc<dyn PageOracle>)>,
    tombstones: FxHashSet<u64>,
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PageStore::default()
    }

    /// Registers `oracle` as the content source for the linear page range
    /// `pages`. Later registrations shadow earlier ones on overlap;
    /// registrations the new range fully covers can never be consulted
    /// again and are dropped, so re-binding a region (placement plan
    /// refresh) does not accumulate dead oracles.
    pub fn register_oracle(&mut self, pages: Range<u64>, oracle: Arc<dyn PageOracle>) {
        self.oracles
            .retain(|(r, _)| !(pages.start <= r.start && r.end <= pages.end));
        self.oracles.push((pages, oracle));
    }

    /// The linear page ranges an oracle backs. Their union is every page
    /// ever registered: a registration is dropped only when a later one
    /// covers it.
    pub fn oracle_ranges(&self) -> impl Iterator<Item = &Range<u64>> {
        self.oracles.iter().map(|(r, _)| r)
    }

    /// Stores explicitly written page contents (trailing zeros trimmed).
    pub fn write(&mut self, page_index: u64, data: &[u8]) {
        let trimmed_len = data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        self.explicit
            .insert(page_index, data[..trimmed_len].to_vec().into_boxed_slice());
        self.tombstones.remove(&page_index);
    }

    /// Removes a page's contents (used by block erase). Oracle-covered
    /// pages are tombstoned so they read as zeros afterwards.
    pub fn erase(&mut self, page_index: u64) {
        self.explicit.remove(&page_index);
        if self.oracle_for(page_index).is_some() {
            self.tombstones.insert(page_index);
        }
    }

    fn oracle_for(&self, page_index: u64) -> Option<&Arc<dyn PageOracle>> {
        // Later registrations shadow earlier ones.
        self.oracles
            .iter()
            .rev()
            .find(|(r, _)| r.contains(&page_index))
            .map(|(_, o)| o)
    }

    fn source(&self, page_index: u64) -> Source<'_> {
        if let Some(data) = self.explicit.get(&page_index) {
            Source::Explicit(data)
        } else if self.tombstones.contains(&page_index) {
            Source::Zero
        } else {
            self.oracle_for(page_index)
                .map_or(Source::Zero, |oracle| Source::Oracle(&**oracle))
        }
    }

    /// The page at `page_index` as an image from `pool`, sized by what the
    /// page holds — the explicit page's stored length, the oracle's
    /// [`PageOracle::filled_prefix`] — which is known before any buffer is
    /// taken.
    pub fn read_image(&self, page_index: u64, pool: &mut PagePool) -> PageImage {
        let source = self.source(page_index);
        let extent = match source {
            Source::Zero => 0,
            Source::Explicit(data) => data.len(),
            Source::Oracle(oracle) => oracle.filled_prefix(page_index, pool.page_len()),
        };
        let mut image = pool.take(extent);
        image.refill(|content| {
            source.fill(page_index, content);
            extent
        });
        image
    }

    /// Reads the full page at `page_index` into `out`, zero-filling
    /// whatever was never written.
    pub fn read_into(&self, page_index: u64, out: &mut [u8]) {
        out.fill(0);
        self.source(page_index).fill(page_index, out);
    }

    /// Reads a page into a freshly allocated buffer of `page_bytes`.
    pub fn read(&self, page_index: u64, page_bytes: usize) -> Box<[u8]> {
        let mut buf = vec![0u8; page_bytes].into_boxed_slice();
        self.read_into(page_index, &mut buf);
        buf
    }

    /// `true` if the page has explicitly written contents (oracle pages
    /// excluded).
    pub fn is_written(&self, page_index: u64) -> bool {
        self.explicit.contains_key(&page_index)
    }

    /// Number of explicitly stored pages (diagnostics).
    pub fn explicit_pages(&self) -> usize {
        self.explicit.len()
    }

    /// Approximate bytes of host memory used by explicit page images.
    pub fn resident_bytes(&self) -> usize {
        self.explicit.values().map(|d| d.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct SeqOracle;
    impl PageOracle for SeqOracle {
        fn fill_page(&self, page_index: u64, out: &mut [u8]) {
            out[0] = page_index as u8;
            out[1] = 0xAB;
        }
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let store = PageStore::new();
        let page = store.read(5, 64);
        assert!(page.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_round_trip() {
        let mut store = PageStore::new();
        let mut data = vec![0u8; 64];
        data[0] = 1;
        data[10] = 2;
        store.write(3, &data);
        assert_eq!(&store.read(3, 64)[..], &data[..]);
    }

    #[test]
    fn trailing_zeros_are_trimmed_but_contents_preserved() {
        let mut store = PageStore::new();
        let mut data = vec![0u8; 16 * 1024];
        data[100] = 42;
        store.write(0, &data);
        assert!(store.resident_bytes() <= 101);
        assert_eq!(store.read(0, 16 * 1024)[100], 42);
    }

    #[test]
    fn oracle_serves_registered_range() {
        let mut store = PageStore::new();
        store.register_oracle(10..20, Arc::new(SeqOracle));
        let page = store.read(12, 32);
        assert_eq!(page[0], 12);
        assert_eq!(page[1], 0xAB);
        // Outside the range: zeros.
        assert!(store.read(9, 32).iter().all(|&b| b == 0));
    }

    #[test]
    fn explicit_write_shadows_oracle() {
        let mut store = PageStore::new();
        store.register_oracle(0..100, Arc::new(SeqOracle));
        store.write(50, &[9, 9, 9]);
        assert_eq!(&store.read(50, 8)[..3], &[9, 9, 9]);
    }

    #[test]
    fn later_oracle_shadows_earlier() {
        #[derive(Debug)]
        struct Const(u8);
        impl PageOracle for Const {
            fn fill_page(&self, _i: u64, out: &mut [u8]) {
                out[0] = self.0;
            }
        }
        let mut store = PageStore::new();
        store.register_oracle(0..10, Arc::new(Const(1)));
        store.register_oracle(5..10, Arc::new(Const(2)));
        assert_eq!(store.read(3, 4)[0], 1);
        assert_eq!(store.read(7, 4)[0], 2);
    }

    #[test]
    fn erase_tombstones_oracle_pages() {
        let mut store = PageStore::new();
        store.register_oracle(0..10, Arc::new(SeqOracle));
        assert_eq!(store.read(4, 8)[1], 0xAB);
        store.erase(4);
        assert!(store.read(4, 8).iter().all(|&b| b == 0));
        // Re-writing revives the page with explicit data.
        store.write(4, &[7]);
        assert_eq!(store.read(4, 8)[0], 7);
    }

    #[test]
    fn erase_removes_explicit_pages() {
        let mut store = PageStore::new();
        store.write(1, &[1, 2, 3]);
        assert!(store.is_written(1));
        store.erase(1);
        assert!(!store.is_written(1));
        assert!(store.read(1, 8).iter().all(|&b| b == 0));
        assert_eq!(store.explicit_pages(), 0);
    }
}
