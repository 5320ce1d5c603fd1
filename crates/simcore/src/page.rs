//! The one host-memory image of a flash page.
//!
//! A page read off a simulated die exists **once**: the flash array fills
//! a [`PageImage`] in place, the FTL caches and forwards clones of the same
//! reference-counted buffer, the device completes a read command with the
//! images it already holds, and the last reader hands them back to the
//! array's [`PagePool`]. No layer copies the page to pass it on.
//!
//! An image backs only what the page *contains*. RecSSD stores one
//! embedding vector per 16 KB page, so a dim-32 page is 128 B of content
//! and 16 256 B of zeros: the image allocates the content, rounded up to a
//! power-of-two size class, and every reader goes through
//! [`PageImage::bytes_at`], which reads zeros past the backing. What the
//! *simulated* device charges by size (bus transfers, PCIe bytes, cache
//! capacity) comes from the geometry's page size, never from a buffer.
//!
//! Zeroing follows the same rule. An image remembers the prefix its last
//! fill may have dirtied; everything past it is guaranteed zero, so a
//! refill clears only that prefix. The prefix lives in the handle and is
//! cloned with it — it cannot go stale the way a side table keyed by
//! buffer address could.

use std::borrow::Cow;
use std::sync::Arc;

/// Smallest backing a non-empty image allocates.
const MIN_CLASS_BYTES: usize = 64;

/// Backing size for `extent` bytes of content on a `page_len`-byte page:
/// the next power of two, at least [`MIN_CLASS_BYTES`], at most the page.
fn class_bytes(page_len: usize, extent: usize) -> usize {
    extent
        .max(MIN_CLASS_BYTES)
        .next_power_of_two()
        .min(page_len)
}

/// A reference-counted image of one flash page: `len()` logical bytes of
/// which only a leading, content-sized part is backed by memory. The rest
/// reads as zero.
///
/// # Example
///
/// ```
/// use recssd_sim::PageImage;
///
/// // A 16 KB page holding three bytes costs one small size class.
/// let mut img = PageImage::with_extent(16 * 1024, 3);
/// img.refill(|content| {
///     content[..3].copy_from_slice(&[1, 2, 3]);
///     3
/// });
/// assert_eq!(img.len(), 16 * 1024);
/// assert_eq!(img.used_prefix(), &[1, 2, 3]);
/// // Readers zero-extend: this range lies past anything allocated.
/// assert_eq!(&*img.bytes_at(16_000, 4), &[0, 0, 0, 0]);
/// // The next fill sees all-zero content again.
/// img.refill(|content| {
///     assert!(content.iter().all(|&b| b == 0));
///     0
/// });
/// ```
#[derive(Debug, Clone)]
pub struct PageImage {
    /// The backing: the leading `bytes.len() <= len` bytes of the page.
    bytes: Arc<[u8]>,
    /// `bytes[used..]` is all zero.
    used: usize,
    /// Logical length of the page.
    len: usize,
}

impl PageImage {
    /// The all-zero image of a `len`-byte page. It backs nothing.
    pub fn empty(len: usize) -> Self {
        PageImage {
            bytes: Arc::from([]),
            used: 0,
            len,
        }
    }

    /// A fresh all-zero image of a `len`-byte page with room for `extent`
    /// bytes of content (and no more than its size class beyond that).
    ///
    /// # Panics
    ///
    /// Panics if `extent` exceeds `len`.
    pub fn with_extent(len: usize, extent: usize) -> Self {
        assert!(extent <= len, "content extent past the page");
        PageImage {
            bytes: vec![0u8; class_bytes(len, extent)].into(),
            used: 0,
            len,
        }
    }

    /// Logical length of the page in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The prefix that may hold non-zero bytes; the rest of the page is
    /// zero.
    pub fn used_prefix(&self) -> &[u8] {
        &self.bytes[..self.used]
    }

    /// The page's bytes `[offset, offset + len)` — the one accessor every
    /// reader goes through. A range the backing covers is borrowed; one
    /// that reaches past it (a row the page never held, an unmapped page)
    /// is copied out and zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the logical page.
    #[inline]
    pub fn bytes_at(&self, offset: usize, len: usize) -> Cow<'_, [u8]> {
        let end = offset + len;
        assert!(end <= self.len, "read past the page");
        if let Some(backed) = self.bytes.get(offset..end) {
            return Cow::Borrowed(backed);
        }
        let mut out = vec![0u8; len];
        if let Some(backed) = self.bytes.get(offset..) {
            out[..backed.len()].copy_from_slice(backed);
        }
        Cow::Owned(out)
    }

    /// The whole page, zero-extended (copies; for assertions and
    /// diagnostics, not the datapath).
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes_at(0, self.len).into_owned()
    }

    /// `true` when no clone of this image exists — the only state in which
    /// it may be refilled, and therefore pooled.
    pub fn is_exclusive(&self) -> bool {
        Arc::strong_count(&self.bytes) == 1
    }

    /// Rewrites the image in place. The prefix the previous fill dirtied
    /// is cleared first, so `fill` receives all-zero content — the page's
    /// leading bytes, at least the extent the image was made for; it
    /// returns an upper bound on the prefix it wrote (the new dirty
    /// extent).
    ///
    /// # Panics
    ///
    /// Panics if a clone of the image is still alive (a reader or the
    /// page cache could observe the overwrite), or if `fill` reports a
    /// prefix longer than the content it was given.
    pub fn refill(&mut self, fill: impl FnOnce(&mut [u8]) -> usize) {
        let content = Arc::get_mut(&mut self.bytes).expect("refill of a shared page image");
        content[..self.used].fill(0);
        // Until `fill` reports its extent the whole backing counts as
        // dirty, so a panic inside it cannot leave stale bytes marked
        // clean.
        self.used = content.len();
        let used = fill(content);
        assert!(
            used <= content.len(),
            "fill reported a prefix past its content"
        );
        self.used = used;
    }
}

/// Images compare by logical content: the same page length and the same
/// bytes once both are zero-extended, whatever each one backs.
impl PartialEq for PageImage {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.used <= other.used {
            (self, other)
        } else {
            (other, self)
        };
        self.len == other.len
            && short.used_prefix() == &long.bytes[..short.used]
            && long.bytes[short.used..long.used].iter().all(|&b| b == 0)
    }
}

/// Adopts caller-built bytes as a page of exactly that length. Their
/// extent is unknown, so the whole image counts as dirty.
impl From<Vec<u8>> for PageImage {
    fn from(bytes: Vec<u8>) -> Self {
        PageImage {
            used: bytes.len(),
            len: bytes.len(),
            bytes: bytes.into(),
        }
    }
}

/// Free-lists of exclusively owned page images, one per size class, plus
/// the shared empty image all-zero pages are served from — the one page
/// pool of the device stack. Steady-state reads refill a pooled image of
/// the right class in place instead of allocating.
#[derive(Debug)]
pub struct PagePool {
    page_len: usize,
    /// Most images the free-lists keep, over all classes.
    cap: usize,
    /// `free[c]` holds the images whose backing is `MIN_CLASS_BYTES << c`
    /// (the last class is the whole page).
    free: Vec<Vec<PageImage>>,
    pooled: usize,
    /// Images handed out and not yet retired through
    /// [`PagePool::recycle`].
    out: usize,
    /// The pool's own handle keeps the empty image from ever being
    /// exclusive, so it is never counted, pooled or refilled.
    zero: PageImage,
}

impl PagePool {
    /// An empty pool for `page_len`-byte pages that keeps at most `cap`
    /// free images.
    pub fn new(page_len: usize, cap: usize) -> Self {
        let classes = Self::class_of(class_bytes(page_len, page_len)) + 1;
        PagePool {
            page_len,
            cap,
            free: vec![Vec::new(); classes],
            pooled: 0,
            out: 0,
            zero: PageImage::empty(page_len),
        }
    }

    /// Logical length of the pages this pool serves.
    pub fn page_len(&self) -> usize {
        self.page_len
    }

    /// Index of the free-list serving backings of `class_bytes` bytes.
    fn class_of(class_bytes: usize) -> usize {
        class_bytes
            .div_ceil(MIN_CLASS_BYTES)
            .next_power_of_two()
            .ilog2() as usize
    }

    /// An exclusively owned image ready for [`PageImage::refill`] with
    /// `extent` bytes of content: pooled if the class has one, freshly
    /// allocated otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `extent` exceeds the page.
    pub fn take(&mut self, extent: usize) -> PageImage {
        assert!(extent <= self.page_len, "content extent past the page");
        self.out += 1;
        match self.free[Self::class_of(class_bytes(self.page_len, extent))].pop() {
            Some(image) => {
                self.pooled -= 1;
                image
            }
            None => PageImage::with_extent(self.page_len, extent),
        }
    }

    /// Offers an image back once a holder is done with it. While clones
    /// are alive elsewhere (the page cache, another reader) this only
    /// drops the caller's reference; the last holder's call retires the
    /// image into its class's free-list. Images that are not a page of
    /// this pool (a short program payload) are dropped.
    pub fn recycle(&mut self, image: PageImage) {
        if !image.is_exclusive() {
            return;
        }
        // Saturating: an image built outside the pool (`From<Vec<u8>>`
        // program payloads) is adopted rather than counted twice.
        self.out = self.out.saturating_sub(1);
        let backing = image.bytes.len();
        if image.len == self.page_len
            && backing == class_bytes(self.page_len, backing)
            && self.pooled < self.cap
        {
            self.free[Self::class_of(backing)].push(image);
            self.pooled += 1;
        }
    }

    /// The shared all-zero image (what an unmapped page reads as).
    /// Offering it to [`PagePool::recycle`] is harmless.
    pub fn zero(&self) -> PageImage {
        self.zero.clone()
    }

    /// Images currently handed out: taken and not yet retired by their
    /// last holder.
    pub fn out(&self) -> usize {
        self.out
    }

    /// Images waiting in the free-lists, over all classes.
    pub fn pooled(&self) -> usize {
        self.pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn refill_clears_exactly_what_the_last_fill_dirtied() {
        let mut img = PageImage::with_extent(32, 32);
        img.refill(|p| {
            p[..8].fill(0xAA);
            8
        });
        assert_eq!(img.used_prefix(), &[0xAA; 8]);
        img.refill(|p| {
            assert!(
                p.iter().all(|&b| b == 0),
                "stale bytes leaked into a refill"
            );
            p[0] = 1;
            1
        });
        assert_eq!(&*img.bytes_at(0, 2), &[1, 0]);
    }

    #[test]
    fn adopted_bytes_count_as_fully_dirty() {
        let mut img = PageImage::from(vec![7u8; 16]);
        assert_eq!(img.used_prefix().len(), 16);
        img.refill(|p| {
            assert!(p.iter().all(|&b| b == 0));
            0
        });
    }

    #[test]
    fn clones_share_bytes_and_block_refill() {
        let img = PageImage::with_extent(8, 8);
        assert!(img.is_exclusive());
        let reader = img.clone();
        assert!(!img.is_exclusive());
        assert_eq!(img, reader);
        drop(reader);
        assert!(img.is_exclusive());
    }

    #[test]
    #[should_panic(expected = "shared page image")]
    fn refilling_a_shared_image_panics() {
        let mut img = PageImage::with_extent(8, 8);
        let _reader = img.clone();
        img.refill(|_| 0);
    }

    #[test]
    fn an_image_backs_its_content_not_its_page() {
        let img = PageImage::with_extent(16 * 1024, 128);
        assert_eq!(img.len(), 16 * 1024);
        assert_eq!(img.bytes.len(), 128);
        assert_eq!(PageImage::with_extent(16 * 1024, 129).bytes.len(), 256);
        assert_eq!(PageImage::with_extent(16 * 1024, 1).bytes.len(), 64);
        // The top class is the page itself, power of two or not.
        assert_eq!(PageImage::with_extent(1000, 600).bytes.len(), 1000);
        assert_eq!(PageImage::with_extent(8, 3).bytes.len(), 8);
        assert_eq!(PageImage::empty(16 * 1024).bytes.len(), 0);
    }

    #[test]
    fn the_pool_serves_each_class_from_its_own_list() {
        let mut pool = PagePool::new(4096, 3);
        let small = pool.take(100);
        let big = pool.take(4096);
        assert_eq!(pool.out(), 2);
        assert_eq!(pool.zero(), PageImage::empty(4096));
        pool.recycle(pool.zero());
        assert_eq!(pool.out(), 2, "the empty image is shared, not handed out");
        pool.recycle(small);
        pool.recycle(big);
        assert_eq!((pool.out(), pool.pooled()), (0, 2));
        assert_eq!(pool.take(4000).bytes.len(), 4096);
        assert_eq!(pool.take(65).bytes.len(), 128);
        assert_eq!(pool.pooled(), 0);
        // A short program payload and an off-class page are dropped.
        pool.recycle(PageImage::from(vec![1u8; 3]));
        pool.recycle(PageImage::from(vec![1u8; 4096]));
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn the_cap_bounds_all_classes_together() {
        let mut pool = PagePool::new(1024, 4);
        let held: Vec<_> = (0..12).map(|i| pool.take(1 << (i % 4 + 6))).collect();
        for image in held {
            pool.recycle(image);
        }
        assert_eq!((pool.out(), pool.pooled()), (0, 4));
    }

    /// The full-page reference: what the image must read as.
    fn reference(page_len: usize, content: &[u8]) -> Vec<u8> {
        let mut full = content.to_vec();
        full.resize(page_len, 0);
        full
    }

    fn filled(page_len: usize, extent: usize, content: &[u8]) -> PageImage {
        let mut img = PageImage::with_extent(page_len, extent);
        img.refill(|p| {
            p[..content.len()].copy_from_slice(content);
            content.len()
        });
        img
    }

    proptest! {
        /// For any page, content and range the zero-extending accessor
        /// and `PartialEq` agree with a full-page `Vec<u8>` — the empty
        /// image and one backing refilled to a shorter, then a longer
        /// extent included.
        #[test]
        fn an_image_reads_as_its_zero_extended_page(
            page_len in 1usize..600,
            // Half the draws are zero bytes, so content ends in zeros too.
            raw in proptest::collection::vec(0u16..512, 0..600),
            (cut_a, cut_b) in (0usize..600, 0usize..600),
            (offset, len) in (0usize..600, 0usize..600),
            slack in 0usize..300,
        ) {
            let content: Vec<u8> = raw
                .iter()
                .take(page_len)
                .map(|&b| if b < 256 { b as u8 } else { 0 })
                .collect();
            let full = reference(page_len, &content);
            let offset = offset % page_len;
            let len = len % (page_len - offset + 1);

            let img = if content.is_empty() {
                PageImage::empty(page_len)
            } else {
                filled(page_len, content.len(), &content)
            };
            prop_assert_eq!(img.len(), page_len);
            prop_assert_eq!(&*img.bytes_at(offset, len), &full[offset..offset + len]);
            prop_assert_eq!(img.to_vec(), full.clone());

            // Equality is by logical content, not by what is backed.
            let roomy = filled(page_len, (content.len() + slack).min(page_len), &content);
            prop_assert_eq!(&img, &roomy);
            prop_assert_eq!(&roomy, &PageImage::from(full.clone()));
            prop_assert_ne!(&img, &PageImage::from(reference(page_len + 1, &content)));
            let mut other = full.clone();
            other[offset] ^= 0x5A;
            prop_assert_ne!(&roomy, &PageImage::from(other.clone()));
            prop_assert_ne!(&PageImage::from(other), &img);

            // One backing refilled to a shorter and then a longer extent
            // never shows bytes of an earlier fill.
            let mut reused = roomy;
            for cut in [cut_a, cut_b].map(|c| c % (content.len() + 1)) {
                reused.refill(|p| {
                    assert!(p.iter().all(|&b| b == 0), "stale bytes in a refill");
                    p[..cut].copy_from_slice(&content[..cut]);
                    cut
                });
                let full = reference(page_len, &content[..cut]);
                prop_assert_eq!(&*reused.bytes_at(offset, len), &full[offset..offset + len]);
                prop_assert_eq!(&reused, &PageImage::from(full));
            }
        }
    }
}
