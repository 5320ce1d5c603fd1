//! Placement of embedding tables onto the device's logical block space.

use std::sync::Arc;

use recssd_embedding::{TableId, TableImage, TableImageOracle};
use recssd_ftl::Lpn;
use recssd_ssd::{NdpEngine, SsdDevice};

/// One table bound to a device location.
#[derive(Debug, Clone)]
pub struct TableBinding {
    /// The table's id within the registry.
    pub id: TableId,
    /// Layout + contents.
    pub image: Arc<TableImage>,
    /// First logical page of the table (a multiple of the alignment).
    pub base_lpn: u64,
}

/// Assigns aligned base addresses to tables and preloads them onto the
/// device. Alignment is the §4.3 contract that lets the firmware separate
/// `(table base, request id)` from a single SLBA with a modulus.
///
/// # Example
///
/// ```
/// use recssd::TableRegistry;
/// use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};
///
/// let mut reg = TableRegistry::new(1024);
/// let spec = TableSpec::new(100, 8, Quantization::F32);
/// let img = TableImage::new(EmbeddingTable::procedural(spec, 0), PageLayout::Spread, 16 * 1024);
/// let id = reg.register(img);
/// assert_eq!(reg.binding(id).base_lpn % 1024, 0);
/// ```
#[derive(Debug)]
pub struct TableRegistry {
    align: u64,
    tables: Vec<TableBinding>,
}

impl TableRegistry {
    /// Creates a registry with the given base alignment (in pages).
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn new(align: u64) -> Self {
        assert!(align > 0, "alignment must be positive");
        TableRegistry {
            align,
            tables: Vec::new(),
        }
    }

    /// The base alignment in pages.
    pub fn align(&self) -> u64 {
        self.align
    }

    /// Registers a table, assigning it the next aligned base.
    ///
    /// # Panics
    ///
    /// Panics if the table needs more pages than one alignment slot (the
    /// "minimum table size and alignment constraints" of §4.3 would be
    /// violated and SLBA decoding would be ambiguous).
    pub fn register(&mut self, image: TableImage) -> TableId {
        assert!(
            image.pages() <= self.align,
            "table of {} pages exceeds the {}-page alignment slot",
            image.pages(),
            self.align
        );
        let id = TableId(self.tables.len() as u32);
        let base_lpn = self.tables.len() as u64 * self.align;
        self.tables.push(TableBinding {
            id,
            image: Arc::new(image),
            base_lpn,
        });
        id
    }

    /// The binding of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub fn binding(&self, id: TableId) -> &TableBinding {
        &self.tables[id.0 as usize]
    }

    /// Swaps the image bound at `id` in place (same slot, same base LPN),
    /// returning the page count of the image it replaced. Placement
    /// refresh uses this to re-bind a slot to a re-packed image without
    /// consuming a new alignment slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the new image exceeds the slot.
    pub fn replace(&mut self, id: TableId, image: TableImage) -> u64 {
        assert!(
            image.pages() <= self.align,
            "table of {} pages exceeds the {}-page alignment slot",
            image.pages(),
            self.align
        );
        let b = &mut self.tables[id.0 as usize];
        let old_pages = b.image.pages();
        b.image = Arc::new(image);
        old_pages
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Logical pages consumed so far (including alignment padding).
    pub fn used_pages(&self) -> u64 {
        self.tables.len() as u64 * self.align
    }

    /// Preloads one table's image onto the device.
    pub fn bind_to_device<X: NdpEngine>(&self, id: TableId, dev: &mut SsdDevice<X>) {
        let b = self.binding(id);
        dev.preload(
            Lpn(b.base_lpn),
            b.image.pages(),
            Arc::new(TableImageOracle::new(b.image.clone(), b.base_lpn)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableSpec};

    fn image(rows: u64) -> TableImage {
        TableImage::new(
            EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 1),
            PageLayout::Spread,
            16 * 1024,
        )
    }

    #[test]
    fn bases_are_aligned_and_disjoint() {
        let mut reg = TableRegistry::new(512);
        let a = reg.register(image(100));
        let b = reg.register(image(500));
        assert_eq!(reg.binding(a).base_lpn, 0);
        assert_eq!(reg.binding(b).base_lpn, 512);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.used_pages(), 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_table_rejected() {
        let mut reg = TableRegistry::new(64);
        reg.register(image(100));
    }
}
