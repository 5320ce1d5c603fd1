//! The one host-memory image of a flash page.
//!
//! A page read off a simulated die exists **once**: the flash array fills
//! a [`PageImage`] in place, the FTL caches and forwards clones of the same
//! reference-counted buffer, the device completes a read command with the
//! images it already holds, and the last reader hands them back to the
//! array's pool. No layer copies the 16 KB to pass it on.
//!
//! Zeroing follows the same rule. An image remembers the prefix its last
//! fill may have dirtied; everything past it is guaranteed zero, so a
//! refill clears only that prefix instead of the whole page. The prefix
//! lives in the handle and is cloned with it — it cannot go stale the way a
//! side table keyed by buffer address could.

use std::ops::Deref;
use std::sync::Arc;

/// A reference-counted full-page buffer plus the length of the prefix that
/// may hold non-zero bytes. Dereferences to the page bytes.
///
/// # Example
///
/// ```
/// use recssd_sim::PageImage;
///
/// let mut img = PageImage::zeroed(64);
/// img.refill(|page| {
///     page[..3].copy_from_slice(&[1, 2, 3]);
///     3
/// });
/// assert_eq!(img.used_prefix(), &[1, 2, 3]);
/// // The next fill sees an all-zero page again.
/// img.refill(|page| {
///     assert!(page.iter().all(|&b| b == 0));
///     0
/// });
/// ```
#[derive(Debug, Clone)]
pub struct PageImage {
    bytes: Arc<[u8]>,
    /// `bytes[used..]` is all zero.
    used: usize,
}

impl PageImage {
    /// A fresh all-zero image of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        PageImage {
            bytes: vec![0u8; len].into(),
            used: 0,
        }
    }

    /// The prefix that may hold non-zero bytes; the rest of the page is
    /// zero.
    pub fn used_prefix(&self) -> &[u8] {
        &self.bytes[..self.used]
    }

    /// `true` when no clone of this image exists — the only state in which
    /// it may be refilled, and therefore pooled.
    pub fn is_exclusive(&self) -> bool {
        Arc::strong_count(&self.bytes) == 1
    }

    /// Rewrites the image in place. The prefix the previous fill dirtied
    /// is cleared first, so `fill` receives an all-zero page; it returns
    /// an upper bound on the prefix it wrote (the new dirty extent).
    ///
    /// # Panics
    ///
    /// Panics if a clone of the image is still alive (a reader or the
    /// page cache could observe the overwrite), or if `fill` reports a
    /// prefix longer than the page.
    pub fn refill(&mut self, fill: impl FnOnce(&mut [u8]) -> usize) {
        let page = Arc::get_mut(&mut self.bytes).expect("refill of a shared page image");
        page[..self.used].fill(0);
        // Until `fill` reports its extent the whole page counts as dirty,
        // so a panic inside it cannot leave stale bytes marked clean.
        self.used = page.len();
        let used = fill(page);
        assert!(used <= page.len(), "fill reported a prefix past the page");
        self.used = used;
    }
}

impl Deref for PageImage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Images compare by content.
impl PartialEq for PageImage {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

/// Adopts caller-built bytes. Their extent is unknown, so the whole image
/// counts as dirty.
impl From<Vec<u8>> for PageImage {
    fn from(bytes: Vec<u8>) -> Self {
        PageImage {
            used: bytes.len(),
            bytes: bytes.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_clears_exactly_what_the_last_fill_dirtied() {
        let mut img = PageImage::zeroed(32);
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
        assert_eq!(&img[..2], &[1, 0]);
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
        let img = PageImage::zeroed(8);
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
        let mut img = PageImage::zeroed(8);
        let _reader = img.clone();
        img.refill(|_| 0);
    }
}
