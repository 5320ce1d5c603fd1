//! FTL configuration.

use recssd_flash::FlashConfig;

use crate::firmware::EnginePoolConfig;

/// Configuration of the FTL layer.
///
/// # Example
///
/// ```
/// use recssd_ftl::FtlConfig;
/// let cfg = FtlConfig::cosmos();
/// assert!(cfg.logical_pages < cfg.flash.geometry.total_pages());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FtlConfig {
    /// The underlying NAND array.
    pub flash: FlashConfig,
    /// Host-visible logical capacity in pages. Must be smaller than the
    /// physical page count — the difference is over-provisioning for GC.
    pub logical_pages: u64,
    /// Capacity of the SSD-DRAM page cache, in pages.
    pub page_cache_pages: usize,
    /// GC starts for a die when its free-block count drops to this level.
    pub gc_low_water: usize,
    /// Per-channel SLS engine pool (Conduit-style multi-engine compute).
    /// `None` models the stock single-core firmware: every task runs on
    /// the serial firmware core.
    pub engines: Option<EnginePoolConfig>,
}

impl FtlConfig {
    /// Cosmos+ OpenSSD-like configuration: ~87 % of physical pages exposed,
    /// a 64 MB page cache (4096 × 16 KB), GC at two free blocks. The cache's
    /// capacity is simulated pages; the host memory behind it is what those
    /// pages contain (4096 × 128 B for one-vector dim-32 pages).
    pub fn cosmos() -> Self {
        let flash = FlashConfig::cosmos();
        let logical_pages = flash.geometry.total_pages() / 8 * 7;
        FtlConfig {
            flash,
            logical_pages,
            page_cache_pages: 4096,
            gc_low_water: 2,
            engines: None,
        }
    }

    /// Small geometry for unit tests: a handful of blocks per die so GC
    /// and wear-leveling paths are exercised quickly.
    pub fn cosmos_small() -> Self {
        let flash = FlashConfig::cosmos_small();
        let logical_pages = flash.geometry.total_pages() / 2;
        FtlConfig {
            flash,
            logical_pages,
            page_cache_pages: 32,
            gc_low_water: 2,
            engines: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if logical capacity is not strictly below physical capacity
    /// (no over-provisioning would deadlock GC) or if any field is zero.
    pub fn validate(&self) {
        assert!(self.logical_pages > 0, "logical capacity must be positive");
        assert!(
            self.logical_pages < self.flash.geometry.total_pages(),
            "logical capacity must leave over-provisioning headroom"
        );
        assert!(self.page_cache_pages > 0, "page cache must be non-empty");
        assert!(self.gc_low_water >= 1, "GC low-water must be at least 1");
        assert!(
            (self.gc_low_water as u32) < self.flash.geometry.blocks_per_die,
            "GC low-water must be below blocks per die"
        );
        if let Some(engines) = &self.engines {
            engines.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        FtlConfig::cosmos().validate();
        FtlConfig::cosmos_small().validate();
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn full_logical_capacity_rejected() {
        let mut cfg = FtlConfig::cosmos_small();
        cfg.logical_pages = cfg.flash.geometry.total_pages();
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "page cache")]
    fn zero_cache_rejected() {
        let mut cfg = FtlConfig::cosmos_small();
        cfg.page_cache_pages = 0;
        cfg.validate();
    }
}
