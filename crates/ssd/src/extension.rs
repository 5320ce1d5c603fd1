//! The firmware-extension hook where NDP engines plug in.

use recssd_ftl::{FtlOutcome, GreedyFtl};
use recssd_nvme::{NvmeCommand, NvmeCompletion, NvmeStatus, PcieLink, QueuePair};
use recssd_sim::{SimDuration, SimTime};

use crate::device::SsdEvent;

/// Tags with this bit set belong to the installed [`NdpEngine`]; the
/// device core never uses them. Every FTL outcome — page read, page write,
/// firmware task — and every PCIe completion returns the tag its caller
/// supplied, and the device routes it by this bit alone: set, to
/// [`NdpEngine::on_ftl_outcome`] / [`NdpEngine::on_pcie_done`]; clear, to
/// the conventional command whose fetch counter it is.
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
/// Implementations receive every NDP-flagged command, and every FTL
/// outcome and PCIe completion whose tag has [`EXT_TAG_BIT`] set: the
/// engine tags whatever work it starts — page reads, firmware charges,
/// DMAs — with that bit, and each completion hands its tag straight back,
/// so the engine resumes from the tag without a map of ids the callee
/// minted.
pub trait NdpEngine {
    /// Handles an NDP command fetched from queue `qid`.
    fn on_ndp_command(&mut self, ctx: &mut DeviceCtx<'_>, qid: u16, cmd: NvmeCommand);

    /// Handles an FTL outcome whose tag carries [`EXT_TAG_BIT`].
    fn on_ftl_outcome(&mut self, ctx: &mut DeviceCtx<'_>, outcome: FtlOutcome);

    /// Handles a completed PCIe transfer whose tag carries
    /// [`EXT_TAG_BIT`].
    fn on_pcie_done(&mut self, ctx: &mut DeviceCtx<'_>, tag: u64);

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

    fn on_ftl_outcome(&mut self, _ctx: &mut DeviceCtx<'_>, outcome: FtlOutcome) {
        unreachable!("a COTS device tags nothing for an engine: {outcome:?}")
    }

    fn on_pcie_done(&mut self, _ctx: &mut DeviceCtx<'_>, tag: u64) {
        unreachable!("a COTS device tags nothing for an engine: {tag:#x}")
    }

    fn idle(&self) -> bool {
        true
    }
}
