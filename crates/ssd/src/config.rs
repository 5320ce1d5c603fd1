//! Device-level configuration.

use recssd_ftl::FtlConfig;
use recssd_nvme::PcieConfig;
use recssd_sim::SimDuration;

/// Configuration of the assembled SSD.
///
/// The firmware cost parameters are the device-level calibration knobs
/// (for the paper's §5 Cosmos+ OpenSSD platform): `fw_cmd_ns` is the serial embedded-CPU cost of handling
/// one NVMe command, which bounds host-visible random-read IOPS at
/// `1e9 / (fw_cmd_ns + fw_per_page_ns)` — the ceiling §3.2 of the paper
/// attributes the SSD's poor sparse-read performance to.
///
/// # Example
///
/// ```
/// use recssd_ssd::SsdConfig;
/// let cfg = SsdConfig::cosmos();
/// let iops = 1e9 / (cfg.fw_cmd_ns + cfg.fw_per_page_ns) as f64;
/// assert!(iops < 25_000.0, "random reads are firmware-bound");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// FTL and flash configuration.
    pub ftl: FtlConfig,
    /// PCIe link to the host.
    pub pcie: PcieConfig,
    /// Number of I/O queue pairs exposed to the host.
    pub io_queues: usize,
    /// Depth of each queue pair.
    pub queue_depth: usize,
    /// Firmware cost to process one NVMe command (ns).
    pub fw_cmd_ns: u64,
    /// Additional firmware cost per logical block in a command (ns).
    pub fw_per_page_ns: u64,
}

impl SsdConfig {
    /// Cosmos+ OpenSSD-like device, the platform of the paper's §5.
    pub fn cosmos() -> Self {
        SsdConfig {
            ftl: FtlConfig::cosmos(),
            pcie: PcieConfig::gen2_x8(),
            io_queues: 8,
            queue_depth: 64,
            fw_cmd_ns: 50_000,
            fw_per_page_ns: 2_000,
        }
    }

    /// Small-geometry variant for unit tests.
    pub fn cosmos_small() -> Self {
        SsdConfig {
            ftl: FtlConfig::cosmos_small(),
            ..SsdConfig::cosmos()
        }
    }

    /// Firmware charge for a command covering `nlb` logical blocks.
    pub fn fw_command_time(&self, nlb: u32) -> SimDuration {
        SimDuration::from_ns(self.fw_cmd_ns + self.fw_per_page_ns * nlb as u64)
    }

    /// Logical block (= flash page) size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.ftl.flash.geometry.page_bytes
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero queue counts/depths or an invalid FTL configuration.
    pub fn validate(&self) {
        self.ftl.validate();
        assert!(self.io_queues > 0, "need at least one I/O queue");
        assert!(self.queue_depth > 0, "queue depth must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SsdConfig::cosmos().validate();
        SsdConfig::cosmos_small().validate();
    }

    #[test]
    fn fw_command_time_scales_with_blocks() {
        let cfg = SsdConfig::cosmos();
        let one = cfg.fw_command_time(1);
        let many = cfg.fw_command_time(64);
        assert_eq!(one.as_ns(), 52_000);
        assert_eq!(many.as_ns(), 50_000 + 64 * 2_000);
    }

    #[test]
    fn sequential_large_commands_amortise_firmware_below_flash_rate() {
        // A 64-block read charges ~178 us of firmware but needs ~800 us of
        // flash time — so sequential streams are flash-bound, matching the
        // ~1.3 GB/s figure, while single-block commands are firmware-bound.
        let cfg = SsdConfig::cosmos();
        let fw = cfg.fw_command_time(64);
        let flash_per_page = 1e9
            / (cfg.ftl.flash.timing.channel_read_iops(cfg.block_bytes())
                * cfg.ftl.flash.geometry.channels as f64);
        let flash_64 = flash_per_page * 64.0;
        assert!(
            (fw.as_ns() as f64) < flash_64,
            "large commands must not be firmware-bound"
        );
    }
}
