//! On-SSD byte layout of embedding tables.

use std::sync::Arc;

use recssd_flash::PageOracle;

use crate::EmbeddingTable;

/// How rows are placed onto flash pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageLayout {
    /// One vector per page. §5 of the paper adopts this for all model
    /// evaluations: "Given the high cache miss rates and our locality
    /// analysis, we assume a single embedding vector per SSD page of
    /// 16KB." Every distinct row access touches a distinct page.
    Spread,
    /// Rows packed densely, `page_bytes / row_bytes` per page. Used by the
    /// Fig. 8 microbenchmarks, where *sequential* ids share pages and
    /// *strided* ids land on distinct pages.
    Dense,
}

/// A table bound to a page layout: the bridge between row indices and
/// logical page addresses.
///
/// # Example
///
/// ```
/// use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};
/// let t = EmbeddingTable::procedural(TableSpec::new(1000, 32, Quantization::F32), 0);
/// let img = TableImage::new(t, PageLayout::Dense, 16 * 1024);
/// assert_eq!(img.rows_per_page(), 128);
/// assert_eq!(img.page_of_row(200).0, 1);
/// let spread = TableImage::new(
///     EmbeddingTable::procedural(TableSpec::new(1000, 32, Quantization::F32), 0),
///     PageLayout::Spread,
///     16 * 1024,
/// );
/// assert_eq!(spread.pages(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct TableImage {
    table: EmbeddingTable,
    layout: PageLayout,
    page_bytes: usize,
}

impl TableImage {
    /// Binds `table` to a layout.
    ///
    /// # Panics
    ///
    /// Panics if a row does not fit in a page.
    pub fn new(table: EmbeddingTable, layout: PageLayout, page_bytes: usize) -> Self {
        assert!(
            table.spec().row_bytes() <= page_bytes,
            "row larger than a page"
        );
        TableImage {
            table,
            layout,
            page_bytes,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &EmbeddingTable {
        &self.table
    }

    /// The layout.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Page size this image is laid out for.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Rows stored per page.
    #[inline]
    pub fn rows_per_page(&self) -> u64 {
        match self.layout {
            PageLayout::Spread => 1,
            PageLayout::Dense => (self.page_bytes / self.table.spec().row_bytes()) as u64,
        }
    }

    /// Total pages occupied by the table.
    pub fn pages(&self) -> u64 {
        self.table.spec().rows.div_ceil(self.rows_per_page())
    }

    /// `(relative page index, byte offset within page)` of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn page_of_row(&self, row: u64) -> (u64, usize) {
        assert!(row < self.table.spec().rows, "row out of range");
        let rpp = self.rows_per_page();
        let page = row / rpp;
        let slot = (row % rpp) as usize;
        (page, slot * self.table.spec().row_bytes())
    }

    /// Rows residing on relative page `page` (clamped to the table size).
    #[inline]
    pub fn rows_in_page(&self, page: u64) -> std::ops::Range<u64> {
        let rpp = self.rows_per_page();
        let start = page * rpp;
        let end = ((page + 1) * rpp).min(self.table.spec().rows);
        start..end
    }

    /// Fills a page buffer with the encoded rows that live on relative
    /// page `page`.
    ///
    /// Pages are regenerated on every flash-read miss (the oracle-backed
    /// store synthesises contents on demand), so each row is one streamed
    /// pass ([`EmbeddingTable::encode_row_with`]) and the scratch F16 and
    /// Int8 rows pass through is thread-local: steady-state page fills
    /// allocate nothing.
    pub fn fill_relative_page(&self, page: u64, out: &mut [u8]) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<crate::RowScratch> =
                std::cell::RefCell::new(crate::RowScratch::default());
        }
        let row_bytes = self.table.spec().row_bytes();
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            for (i, row) in self.rows_in_page(page).enumerate() {
                let off = i * row_bytes;
                self.table
                    .encode_row_with(row, scratch, &mut out[off..off + row_bytes]);
            }
        });
    }

    /// Decodes the row stored at `(page, offset)` into `out` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim` or the page bytes are truncated.
    #[inline]
    pub fn decode_row_into(&self, page_data: &[u8], offset: usize, out: &mut [f32]) {
        let spec = self.table.spec();
        assert_eq!(out.len(), spec.dim, "output has wrong dim");
        spec.quant.decode_into(&page_data[offset..], out);
    }

    /// Accumulates the row stored at `(page, offset)` into `acc` — the
    /// fused gather+reduce RecSSD's Translation step performs on the
    /// device, with no intermediate vector.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != dim` or the page bytes are truncated.
    #[inline]
    pub fn accumulate_row_at(&self, page_data: &[u8], offset: usize, acc: &mut [f32]) {
        let spec = self.table.spec();
        assert_eq!(acc.len(), spec.dim, "accumulator has wrong dim");
        spec.quant.decode_accumulate(&page_data[offset..], acc);
    }

    /// Decodes the row stored at `(page, offset)` from raw page bytes.
    /// Allocating wrapper over [`TableImage::decode_row_into`].
    pub fn decode_row_at(&self, page_data: &[u8], offset: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.table.spec().dim];
        self.decode_row_into(page_data, offset, &mut out);
        out
    }
}

/// Adapter installing a [`TableImage`] at a fixed base page so the flash
/// layer can generate its contents on demand.
#[derive(Debug)]
pub struct TableImageOracle {
    image: Arc<TableImage>,
    base_page: u64,
}

impl TableImageOracle {
    /// Binds `image` at `base_page` (the first linear page the table
    /// occupies on the device).
    pub fn new(image: Arc<TableImage>, base_page: u64) -> Self {
        TableImageOracle { image, base_page }
    }
}

impl TableImageOracle {
    /// The table-relative page `page_index` addresses, if the table
    /// reaches that far into its slot.
    fn relative_page(&self, page_index: u64) -> Option<u64> {
        let rel = page_index
            .checked_sub(self.base_page)
            .expect("oracle asked outside its range");
        (rel < self.image.pages()).then_some(rel)
    }
}

impl PageOracle for TableImageOracle {
    fn fill_page(&self, page_index: u64, out: &mut [u8]) {
        if let Some(rel) = self.relative_page(page_index) {
            self.image.fill_relative_page(rel, out);
        }
    }

    /// Rows are packed from byte 0, so a page is dirtied exactly up to the
    /// end of its last row — one row's bytes under the spread layout.
    fn filled_prefix(&self, page_index: u64, _page_bytes: usize) -> usize {
        self.relative_page(page_index).map_or(0, |rel| {
            let rows = self.image.rows_in_page(rel);
            (rows.end - rows.start) as usize * self.image.table().spec().row_bytes()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Quantization, TableSpec};

    fn table(rows: u64, dim: usize, q: Quantization) -> EmbeddingTable {
        EmbeddingTable::procedural(TableSpec::new(rows, dim, q), 11)
    }

    #[test]
    fn spread_layout_is_one_row_per_page() {
        let img = TableImage::new(table(50, 32, Quantization::F32), PageLayout::Spread, 16384);
        assert_eq!(img.rows_per_page(), 1);
        assert_eq!(img.pages(), 50);
        assert_eq!(img.page_of_row(17), (17, 0));
        assert_eq!(img.rows_in_page(17), 17..18);
    }

    #[test]
    fn dense_layout_packs_rows() {
        let img = TableImage::new(table(300, 32, Quantization::F32), PageLayout::Dense, 16384);
        assert_eq!(img.rows_per_page(), 128);
        assert_eq!(img.pages(), 3);
        assert_eq!(img.page_of_row(0), (0, 0));
        assert_eq!(img.page_of_row(127), (0, 127 * 128));
        assert_eq!(img.page_of_row(128), (1, 0));
        // Last page is partial.
        assert_eq!(img.rows_in_page(2), 256..300);
    }

    #[test]
    fn quantization_shrinks_page_count() {
        let f32_img = TableImage::new(table(1000, 32, Quantization::F32), PageLayout::Dense, 16384);
        let i8_img = TableImage::new(
            table(1000, 32, Quantization::Int8),
            PageLayout::Dense,
            16384,
        );
        assert!(i8_img.pages() < f32_img.pages());
        assert_eq!(i8_img.rows_per_page(), (16384 / 36) as u64);
    }

    #[test]
    fn fill_and_decode_round_trip() {
        for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
            let img = TableImage::new(table(200, 16, q), PageLayout::Dense, 4096);
            let mut page = vec![0u8; 4096];
            let (p, off) = img.page_of_row(150);
            img.fill_relative_page(p, &mut page);
            let dec = img.decode_row_at(&page, off);
            assert_eq!(dec, img.table().row_f32(150), "quant {q:?}");
        }
    }

    #[test]
    fn oracle_serves_pages_at_its_base() {
        let img = Arc::new(TableImage::new(
            table(64, 8, Quantization::F32),
            PageLayout::Spread,
            512,
        ));
        let oracle = TableImageOracle::new(img.clone(), 1000);
        let mut out = vec![0u8; 512];
        oracle.fill_page(1005, &mut out);
        let dec = img.decode_row_at(&out, 0);
        assert_eq!(dec, img.table().row_f32(5));
        // Beyond the table: untouched zeros.
        let mut out2 = vec![0u8; 512];
        oracle.fill_page(1000 + 64, &mut out2);
        assert!(out2.iter().all(|&b| b == 0));
        assert_eq!(oracle.filled_prefix(1000 + 64, 512), 0);
    }

    #[test]
    fn oracle_reports_the_prefix_it_fills() {
        // Dense: 300 rows of 128 B, 32 per 4 KB page, the last page partial.
        let img = Arc::new(TableImage::new(
            table(300, 32, Quantization::F32),
            PageLayout::Dense,
            4096,
        ));
        let oracle = TableImageOracle::new(img.clone(), 10);
        for rel in 0..img.pages() {
            let mut out = vec![0u8; 4096];
            oracle.fill_page(10 + rel, &mut out);
            let prefix = oracle.filled_prefix(10 + rel, 4096);
            assert_eq!(prefix, img.rows_in_page(rel).count() * 128);
            assert!(out[prefix..].iter().all(|&b| b == 0), "page {rel}");
        }
    }

    #[test]
    #[should_panic(expected = "row larger than a page")]
    fn oversized_rows_rejected() {
        TableImage::new(table(10, 2000, Quantization::F32), PageLayout::Dense, 4096);
    }
}
