//! The firmware-extension hook where NDP engines plug in.

use recssd_ftl::{FtlOutcome, GreedyFtl};
use recssd_nvme::{NvmeCommand, NvmeCompletion, NvmeStatus, PcieLink, QueuePair, XferId};
use recssd_sim::{SimDuration, SimTime};

use crate::device::SsdEvent;

/// Firmware tags with this bit set belong to the installed [`NdpEngine`];
/// the device core never allocates them.
pub const EXT_TAG_BIT: u64 = 1 << 63;

/// Mutable view of the device internals handed to an [`NdpEngine`].
///
/// The engine runs *inside the FTL firmware* (the paper implements RecSSD
/// "within the FTL firmware; the interface is compatible with existing
/// NVMe protocols, requiring no hardware changes"), so it gets the same
/// capabilities the stock firmware has: read logical pages through the FTL
/// (sharing its page cache and flash scheduler), charge work onto the
/// serial firmware core, DMA across PCIe, and post NVMe completions.
pub struct DeviceCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The FTL (page reads, firmware charges, page cache).
    pub ftl: &'a mut GreedyFtl,
    /// The host link (result DMAs).
    pub pcie: &'a mut PcieLink,
    /// The NVMe queue pairs (for posting completions).
    pub queues: &'a mut [QueuePair],
    /// The device's flat transfer-buffer free-list, so engines can serve
    /// result blocks from recycled buffers and hand spent command payloads
    /// back.
    pub bufs: &'a mut Vec<Vec<u8>>,
    /// Event scheduler into the device's global queue.
    pub sched: &'a mut dyn FnMut(SimDuration, SsdEvent),
}

impl std::fmt::Debug for DeviceCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceCtx")
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl DeviceCtx<'_> {
    /// Posts a completion on queue `qid`.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn complete(&mut self, qid: u16, completion: NvmeCompletion) {
        self.queues[qid as usize].complete(completion);
    }

    /// A buffer of exactly `len` bytes with **unspecified contents**
    /// from the device's transfer-buffer pool (or a fresh allocation) —
    /// the caller must overwrite every byte (result encoders do).
    pub fn take_buffer(&mut self, len: usize) -> Vec<u8> {
        crate::device::pool_take_raw(self.bufs, len)
    }

    /// Returns a spent buffer to the device's transfer-buffer pool (see
    /// [`crate::SsdDevice::recycle_buffer`] for the size-class rule).
    pub fn recycle_buffer(&mut self, buf: Vec<u8>) {
        crate::device::pool_recycle(self.bufs, buf);
    }
}

/// A firmware extension handling NDP (spare-bit) commands.
///
/// Implementations receive every NDP-flagged command plus first refusal on
/// FTL outcomes and PCIe completions that the device core does not
/// recognise as its own (the core and the engine partition the id spaces:
/// firmware tags with [`EXT_TAG_BIT`] and any FTL/PCIe ids the engine
/// started itself).
pub trait NdpEngine {
    /// Handles an NDP command fetched from queue `qid`.
    fn on_ndp_command(&mut self, ctx: &mut DeviceCtx<'_>, qid: u16, cmd: NvmeCommand);

    /// Offers an FTL outcome whose ids the core does not own. Return
    /// `true` if this engine claims it.
    fn on_ftl_outcome(&mut self, ctx: &mut DeviceCtx<'_>, outcome: &FtlOutcome) -> bool;

    /// Offers a completed PCIe transfer the core does not own. Return
    /// `true` if this engine claims it.
    fn on_pcie_done(&mut self, ctx: &mut DeviceCtx<'_>, xfer: XferId) -> bool;

    /// `true` when the engine has no in-flight work (drain condition).
    fn idle(&self) -> bool;

    /// Resets whatever statistics the engine accumulates (the device's
    /// stats reset cascades here); in-flight work is untouched.
    fn reset_stats(&mut self) {}
}

/// The COTS behaviour: NDP commands fail with `InvalidField`, as a stock
/// drive that does not understand the spare bit would respond.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNdp;

impl NdpEngine for NoNdp {
    fn on_ndp_command(&mut self, ctx: &mut DeviceCtx<'_>, qid: u16, cmd: NvmeCommand) {
        ctx.complete(
            qid,
            NvmeCompletion::error(cmd.cid, NvmeStatus::InvalidField),
        );
    }

    fn on_ftl_outcome(&mut self, _ctx: &mut DeviceCtx<'_>, _outcome: &FtlOutcome) -> bool {
        false
    }

    fn on_pcie_done(&mut self, _ctx: &mut DeviceCtx<'_>, _xfer: XferId) -> bool {
        false
    }

    fn idle(&self) -> bool {
        true
    }
}
