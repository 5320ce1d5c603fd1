//! Configuration of the full RecSSD system: device, NDP engine, host.

use recssd_ssd::SsdConfig;

/// NDP engine (firmware-side) parameters.
///
/// The two cost pairs are the embedded-CPU calibration knobs (1 GHz ARM
/// A9-class): *config processing* scans the sorted pair list and builds
/// per-page work lists; *translation* extracts and accumulates vectors
/// from returned flash pages. §6.1: "roughly half the time in the
/// RecSSD's FTL is spent on Translation. Given the limited hardware
/// capability of the 1GHz, dual core ARM A9 processors..."
#[derive(Debug, Clone, PartialEq)]
pub struct NdpConfig {
    /// Table bases are multiples of this many logical pages; request ids
    /// are encoded below it (§4.3's modulus trick).
    pub table_align: u64,
    /// Capacity of the pending-SLS-request buffer.
    pub max_entries: usize,
    /// Fixed firmware cost of processing one SLS config (ns).
    pub config_process_fixed_ns: u64,
    /// Per-pair firmware cost of config processing (ns).
    pub config_process_per_pair_ns: u64,
    /// Fixed firmware cost of translating one returned page (ns).
    pub translate_fixed_ns: u64,
    /// Per-byte firmware cost of extracting + accumulating vector data
    /// from a page (ns).
    pub translate_per_byte_ns: f64,
    /// Fixed cost of the merge task that ends a request on a per-channel
    /// engine pool (ns). Only charged when the device runs one
    /// (`ssd.ftl.engines`).
    pub merge_fixed_ns: u64,
    /// Per-byte cost of the merge: each engine that translated a page
    /// contributes the request's result bytes (ns/byte).
    pub merge_per_byte_ns: f64,
    /// Slots of the direct-mapped SSD-side embedding cache (0 disables).
    /// Each slot stands for one vector of simulated SSD DRAM; on the host
    /// it costs a `(table base, row)` tag, whatever the row's width.
    pub embed_cache_slots: usize,
}

impl NdpConfig {
    /// Calibrated defaults for the paper's §5 Cosmos+ OpenSSD platform.
    pub fn cosmos() -> Self {
        NdpConfig {
            // 2 Mi pages = 32 GiB of 16 KB blocks per table slot: fits a
            // 1 M-row spread-layout table with headroom, and lets 32
            // tables (the RM2 configuration) share the 2 TB device.
            table_align: 1 << 21,
            max_entries: 64,
            config_process_fixed_ns: 5_000,
            config_process_per_pair_ns: 150,
            // Per-page bookkeeping dominates for sparse vectors; the
            // per-byte term (NEON-class accumulate on the A9) matters once
            // vectors approach the page size (Fig. 11a).
            translate_fixed_ns: 5_000,
            translate_per_byte_ns: 4.0,
            // Folding one engine's f32 partial is a streaming add over
            // SSD DRAM — far cheaper per byte than translation's
            // decode + scatter, but not free on the A9-class cores.
            merge_fixed_ns: 2_000,
            merge_per_byte_ns: 0.5,
            embed_cache_slots: 0,
        }
    }

    /// Enables the SSD-side direct-mapped embedding cache with the given
    /// slot count.
    pub fn with_embed_cache(mut self, slots: usize) -> Self {
        self.embed_cache_slots = slots;
        self
    }

    /// Firmware duration of translating one page carrying `vector_bytes`
    /// of useful embedding data.
    pub fn translate_time(&self, vector_bytes: usize) -> recssd_sim::SimDuration {
        recssd_sim::SimDuration::from_ns(
            self.translate_fixed_ns + (vector_bytes as f64 * self.translate_per_byte_ns) as u64,
        )
    }

    /// Firmware duration of processing a config with `pairs` entries.
    pub fn config_process_time(&self, pairs: usize) -> recssd_sim::SimDuration {
        recssd_sim::SimDuration::from_ns(
            self.config_process_fixed_ns + self.config_process_per_pair_ns * pairs as u64,
        )
    }

    /// Duration of the multi-engine merge task over `partial_bytes` (the
    /// result block once per engine that translated a page).
    pub fn merge_time(&self, partial_bytes: usize) -> recssd_sim::SimDuration {
        recssd_sim::SimDuration::from_ns(
            self.merge_fixed_ns + (partial_bytes as f64 * self.merge_per_byte_ns) as u64,
        )
    }
}

/// Host CPU and driver model (the Skylake desktop of §5).
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// SLS worker threads ("We match our SLS worker count to the number of
    /// independent available I/O queues in our SSD driver stack", §4.2).
    pub sls_workers: usize,
    /// Neural-network worker threads ("we match our neural network workers
    /// to the available CPU resources").
    pub nn_workers: usize,
    /// Dense compute throughput (FLOP/s) for FC layers.
    pub gflops: f64,
    /// Streaming DRAM bandwidth (bytes/s) for embedding gathers.
    pub dram_bytes_per_sec: f64,
    /// Host driver software cost per NVMe command (submission + polled
    /// completion), ns.
    pub sw_cmd_ns: u64,
    /// Host cost per embedding lookup (index handling), ns.
    pub per_lookup_ns: u64,
    /// Fixed overhead of launching any host operator, ns.
    pub op_overhead_ns: u64,
    /// Largest number of *contiguous* logical pages the baseline SLS
    /// planner folds into one NVMe read (1 disables coalescing). Each
    /// command charges `fw_cmd_ns` once however many pages it covers, so
    /// contiguous runs — e.g. the heat-packed head of a placed table —
    /// amortise the serial firmware cost that caps baseline IOPS (§3.2).
    pub read_coalesce_limit: usize,
    /// Largest run of *unwanted* pages the planner reads through to
    /// bridge two nearby wanted pages into one command (0 keeps commands
    /// exact). A bridged page costs `fw_per_page_ns` plus its flash and
    /// PCIe time — orders of magnitude below the `fw_cmd_ns` a separate
    /// command would pay — so small gaps in the heat-packed head are
    /// worth reading through.
    pub read_bridge_limit: usize,
}

impl HostConfig {
    /// Quad-core Skylake-class defaults. The dense throughput reflects
    /// what the Caffe2 f32 operator stack sustains on a quad-core desktop
    /// (well below peak FLOPS), which is what the paper's latencies embed.
    pub fn skylake() -> Self {
        HostConfig {
            sls_workers: 8,
            nn_workers: 4,
            gflops: 15e9,
            dram_bytes_per_sec: 10e9,
            sw_cmd_ns: 8_000,
            per_lookup_ns: 60,
            op_overhead_ns: 2_000,
            read_coalesce_limit: 64,
            read_bridge_limit: 2,
        }
    }
}

/// The full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RecSsdConfig {
    /// The simulated device.
    pub ssd: SsdConfig,
    /// The firmware NDP engine.
    pub ndp: NdpConfig,
    /// The host model.
    pub host: HostConfig,
}

impl RecSsdConfig {
    /// The full Cosmos+ configuration used for paper-scale experiments.
    pub fn cosmos() -> Self {
        RecSsdConfig {
            ssd: SsdConfig::cosmos(),
            ndp: NdpConfig::cosmos(),
            host: HostConfig::skylake(),
        }
    }

    /// Small-geometry configuration for tests and examples: identical
    /// timing, tiny flash array, smaller table alignment.
    pub fn small() -> Self {
        RecSsdConfig {
            ssd: SsdConfig::cosmos_small(),
            ndp: NdpConfig {
                table_align: 1 << 10,
                ..NdpConfig::cosmos()
            },
            host: HostConfig::skylake(),
        }
    }

    /// Small but *wide* configuration: a tiny flash array with the full
    /// eight channels of the Cosmos+ device, so internal-parallelism
    /// effects (the source of the NDP speedup) appear at test scale.
    pub fn small_wide() -> Self {
        let mut cfg = RecSsdConfig::small();
        cfg.ssd.ftl.flash.geometry = recssd_flash::FlashGeometry {
            channels: 8,
            dies_per_channel: 2,
            blocks_per_die: 512,
            pages_per_block: 16,
            page_bytes: 16 * 1024,
        };
        cfg.ssd.ftl.logical_pages = cfg.ssd.ftl.flash.geometry.total_pages() / 2;
        cfg.ndp.table_align = 4096; // up to 16 tables of up to 4096 pages
        cfg
    }

    /// Validates nested configurations.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters.
    pub fn validate(&self) {
        self.ssd.validate();
        assert!(self.ndp.table_align > 0, "table alignment must be positive");
        // Request ids lie below the alignment and ride in the engine's
        // tags beneath `EXT_TAG_BIT`, which no id may reach.
        assert!(
            self.ndp.table_align <= recssd_ssd::EXT_TAG_BIT,
            "table alignment must not exceed 2^63"
        );
        assert!(self.ndp.max_entries > 0, "SLS buffer needs entries");
        assert!(
            self.host.sls_workers > 0 && self.host.nn_workers > 0,
            "need workers"
        );
        assert!(
            self.host.read_coalesce_limit >= 1,
            "read coalescing limit must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        RecSsdConfig::cosmos().validate();
        RecSsdConfig::small().validate();
    }

    /// An alignment of 2^63 keeps every request id below the engine's tag
    /// bit; one beyond it would let a host-chosen id set that bit.
    #[test]
    #[should_panic(expected = "must not exceed 2^63")]
    fn table_alignment_above_the_engine_tag_bit_rejected() {
        let mut cfg = RecSsdConfig::small();
        cfg.ndp.table_align = 1 << 63;
        cfg.validate();
        cfg.ndp.table_align += 1;
        cfg.validate();
    }

    #[test]
    fn translation_cost_scales_with_bytes() {
        let ndp = NdpConfig::cosmos();
        let d32 = ndp.translate_time(128); // dim-32 f32 vector
        let d64 = ndp.translate_time(256);
        assert!(d64 > d32);
        // Calibration anchor: a dim-32 f32 page costs ~5.5 us, below the
        // ~12 us/page internal flash service rate, so the NDP STR path is
        // flash-bound with translation ≈ half the time (Fig. 8).
        assert!((5_000..7_000).contains(&d32.as_ns()), "{d32}");
    }

    #[test]
    fn config_process_cost_scales_with_pairs() {
        let ndp = NdpConfig::cosmos();
        assert!(ndp.config_process_time(1000) > ndp.config_process_time(10));
    }
}
