//! The device core: command fetch, firmware charging, data paths.

use recssd_flash::PageOracle;
use recssd_ftl::{FtlEvent, FtlOutcome, FwTag, GreedyFtl, Lpn, ReadStarted, ReqId};
use recssd_nvme::{
    CmdData, NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus, PcieEvent, PcieLink, QueuePair,
    XferId,
};
use recssd_sim::stats::Counter;
use recssd_sim::{IdMap, PageImage, SimDuration, SimTime};

use crate::extension::{DeviceCtx, NdpEngine, EXT_TAG_BIT};
use crate::{NoNdp, SsdConfig};

/// Events of the assembled device; route them back into
/// [`SsdDevice::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsdEvent {
    /// FTL / flash / firmware event.
    Ftl(FtlEvent),
    /// PCIe DMA event.
    Pcie(PcieEvent),
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsdStats {
    /// Conventional read commands processed.
    pub read_commands: Counter,
    /// Conventional write commands processed.
    pub write_commands: Counter,
    /// NDP (spare-bit) commands handed to the engine.
    pub ndp_commands: Counter,
    /// Logical blocks served to the host by conventional reads.
    pub blocks_read: Counter,
    /// Logical blocks written by conventional writes.
    pub blocks_written: Counter,
}

impl SsdStats {
    /// Resets every counter.
    pub fn reset(&mut self) {
        self.read_commands.reset();
        self.write_commands.reset();
        self.ndp_commands.reset();
        self.blocks_read.reset();
        self.blocks_written.reset();
    }
}

#[derive(Debug)]
struct CmdState {
    /// The submission queue the command came from.
    qid: u16,
    cmd: NvmeCommand,
    pages_left: u32,
    /// A read's page images, one per logical block in LBA order. Every
    /// slot starts as the shared zero image (what an unmapped page reads
    /// as) and is replaced by the FTL's image of that page. Empty for
    /// writes.
    pages: Vec<PageImage>,
    /// One of the command's page reads hit an uncorrectable media error;
    /// the command completes with [`NvmeStatus::MediaError`] once every
    /// outstanding page drains.
    failed: bool,
}

/// Largest number of recycled host-transfer buffers (and, separately,
/// page-image lists) the device keeps.
const HOST_BUF_POOL_CAP: usize = 1024;

/// Pool insert shared by [`SsdDevice::recycle_buffer`] and
/// [`crate::DeviceCtx::recycle_buffer`]: buffers are pooled by
/// *capacity* (rounded to a power of two at allocation), so one
/// recycled buffer serves every transfer length at or below it.
pub(crate) fn pool_recycle(pool: &mut Vec<Vec<u8>>, buf: Vec<u8>) {
    if buf.capacity() > 0 && pool.len() < HOST_BUF_POOL_CAP {
        pool.push(buf);
    }
}

/// Exact-`len` buffer with **unspecified contents** — for callers that
/// overwrite every byte themselves (payload/result encoders), skipping
/// the redundant memset a zeroed take would pay.
pub(crate) fn pool_take_raw(pool: &mut Vec<Vec<u8>>, len: usize) -> Vec<u8> {
    // Best fit by capacity, not exact length: exact size classes
    // fragment the pool (a 16-page transfer cannot reuse a 15-page
    // buffer), which shows up as a steady trickle of allocations every
    // time a workload first produces a new transfer length. Rounding
    // fresh capacities to a power of two keeps the class count small,
    // so after warm-up a take only allocates when *concurrency* (not
    // length) reaches a new high-water mark.
    let mut best: Option<(usize, usize)> = None;
    for (i, b) in pool.iter().enumerate() {
        let cap = b.capacity();
        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
    }
    match best {
        Some((i, _)) => {
            let mut buf = pool.swap_remove(i);
            buf.resize(len, 0);
            buf
        }
        None => {
            let mut buf = Vec::with_capacity(len.next_power_of_two());
            buf.resize(len, 0);
            buf
        }
    }
}

/// The simulated SSD: NVMe frontend + FTL + flash, with a pluggable NDP
/// engine. See the [crate docs](crate) for the data-path description.
#[derive(Debug)]
pub struct SsdDevice<X: NdpEngine = NoNdp> {
    config: SsdConfig,
    ftl: GreedyFtl,
    pcie: PcieLink,
    queues: Vec<QueuePair>,
    ext: X,
    /// Conventional commands in flight, by the device's own fetch counter
    /// (the host's `(qid, cid)` lives in the state); the maps below point
    /// into it.
    cmds: IdMap<u64, CmdState>,
    next_cmd: u64,
    fw_tags: IdMap<u64, u64>,
    /// A pending page read: its command and the page's index in it.
    read_reqs: IdMap<ReqId, (u64, u32)>,
    write_reqs: IdMap<ReqId, u64>,
    dma_out: IdMap<XferId, u64>,
    dma_in: IdMap<XferId, u64>,
    next_tag: u64,
    /// Free-list of recycled flat transfer buffers: NDP result blocks
    /// and command payloads (see [`SsdDevice::recycle_buffer`]).
    host_buf_pool: Vec<Vec<u8>>,
    /// Free-lists of emptied page-image lists, so a read command's list
    /// allocates nothing once warm. `page_list_pool[c]` holds lists of
    /// capacity `2^c`: a take is one pop from the command's class — no
    /// best-fit scan, and a first long read costs one list, not a regrowth
    /// of every list in circulation.
    page_list_pool: Vec<Vec<Vec<PageImage>>>,
    /// Reused scratch for FTL outcomes drained per event.
    ftl_scratch: Vec<FtlOutcome>,
    stats: SsdStats,
}

impl SsdDevice<NoNdp> {
    /// Creates a COTS device (NDP commands rejected).
    pub fn new(config: SsdConfig) -> Self {
        SsdDevice::with_engine(config, NoNdp)
    }
}

impl<X: NdpEngine> SsdDevice<X> {
    /// Creates a device with a custom NDP engine installed in its firmware.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_engine(config: SsdConfig, ext: X) -> Self {
        config.validate();
        let queues = (0..config.io_queues)
            .map(|q| QueuePair::new(q as u16, config.queue_depth))
            .collect();
        SsdDevice {
            ftl: GreedyFtl::new(config.ftl.clone()),
            pcie: PcieLink::new(config.pcie),
            queues,
            ext,
            cmds: IdMap::new(),
            next_cmd: 0,
            fw_tags: IdMap::new(),
            read_reqs: IdMap::new(),
            write_reqs: IdMap::new(),
            dma_out: IdMap::new(),
            dma_in: IdMap::new(),
            next_tag: 0,
            host_buf_pool: Vec::new(),
            page_list_pool: Vec::new(),
            ftl_scratch: Vec::new(),
            stats: SsdStats::default(),
            config,
        }
    }

    /// Returns consumed completion data to the device — the one recycle
    /// call of the host runtime, made once it has finished accumulating.
    /// A conventional read's page images go back to the FTL (each rejoins
    /// the flash pool when its last holder lets go) and the emptied list
    /// to the list pool; a flat buffer rejoins the transfer-buffer pool
    /// behind [`SsdDevice::take_host_buffer`], which is kept by capacity
    /// (best fit), so one recycled buffer serves every transfer length at
    /// or below it.
    pub fn recycle_buffer(&mut self, data: CmdData) {
        match data {
            CmdData::Flat(buf) => pool_recycle(&mut self.host_buf_pool, buf),
            CmdData::Pages(pages) => self.recycle_pages(pages),
        }
    }

    /// Hands every image of `pages` back to the FTL and pools the list.
    fn recycle_pages(&mut self, mut pages: Vec<PageImage>) {
        for image in pages.drain(..) {
            self.ftl.recycle_page_image(image);
        }
        let Some(class) = pages.capacity().checked_ilog2() else {
            return; // never allocated: nothing to pool
        };
        let class = class as usize;
        if self.page_list_pool.len() <= class {
            self.page_list_pool.resize_with(class + 1, Vec::new);
        }
        if self.page_list_pool[class].len() < HOST_BUF_POOL_CAP {
            self.page_list_pool[class].push(pages);
        }
    }

    /// A list of `nlb` slots, each holding the shared zero image (what an
    /// unmapped block reads as), from the pool class that fits `nlb`.
    fn take_page_list(&mut self, nlb: usize) -> Vec<PageImage> {
        let class = nlb.next_power_of_two().ilog2() as usize;
        // Smallest class that fits and has a list: a scan over a handful
        // of classes, not over the lists themselves.
        let mut pages = self
            .page_list_pool
            .iter_mut()
            .skip(class)
            .find_map(Vec::pop)
            .unwrap_or_else(|| Vec::with_capacity(1 << class));
        pages.resize(nlb, self.ftl.zero_page());
        pages
    }

    /// A buffer of exactly `len` bytes with **unspecified contents**
    /// from the transfer-buffer pool (or a fresh allocation). Hosts
    /// building command payloads pull from here — and overwrite every
    /// byte — so the payload allocation closes the same recycle loop as
    /// completion data without a redundant memset.
    pub fn take_host_buffer(&mut self, len: usize) -> Vec<u8> {
        pool_take_raw(&mut self.host_buf_pool, len)
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Device statistics.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// Resets this device's statistics and everything beside and below
    /// it: the NDP engine's, the PCIe link's, FTL counters, firmware and
    /// engine busy time, page-cache hit stats, flash-array stats and
    /// fault-injection counters. Device state itself is untouched.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.ext.reset_stats();
        self.pcie.reset_stats();
        self.ftl.reset_stats();
    }

    /// Host-side access to a queue pair (submit commands, poll
    /// completions).
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn queue(&mut self, qid: u16) -> &mut QueuePair {
        &mut self.queues[qid as usize]
    }

    /// The FTL, for diagnostics and experiment instrumentation.
    pub fn ftl(&self) -> &GreedyFtl {
        &self.ftl
    }

    /// Mutable FTL access (cache drops between experiment phases).
    pub fn ftl_mut(&mut self) -> &mut GreedyFtl {
        &mut self.ftl
    }

    /// Installs (or clears) a fault-injection plan on the FTL's flash
    /// array (see [`GreedyFtl::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: Option<recssd_flash::FaultPlan>) {
        self.ftl.set_fault_plan(plan);
    }

    /// The PCIe link, for diagnostics.
    pub fn pcie(&self) -> &PcieLink {
        &self.pcie
    }

    /// The installed NDP engine.
    pub fn engine(&self) -> &X {
        &self.ext
    }

    /// Mutable access to the installed NDP engine.
    pub fn engine_mut(&mut self) -> &mut X {
        &mut self.ext
    }

    /// Bulk-loads a logical region from `oracle` (see
    /// [`GreedyFtl::preload`]).
    pub fn preload(&mut self, start: Lpn, pages: u64, oracle: std::sync::Arc<dyn PageOracle>) {
        self.ftl.preload(start, pages, oracle);
    }

    /// `true` when no command, DMA, flash or engine work is in flight
    /// (pending completions may still sit in completion queues).
    pub fn idle(&self) -> bool {
        self.cmds.is_empty() && self.ftl.idle() && self.pcie.idle() && self.ext.idle()
    }

    fn alloc_tag(&mut self, c: u64) -> FwTag {
        let tag = self.next_tag;
        self.next_tag += 1;
        debug_assert_eq!(tag & EXT_TAG_BIT, 0, "core tag space exhausted");
        self.fw_tags.insert(tag, c);
        FwTag(tag)
    }

    /// Starts tracking a fetched conventional command; returns its id.
    fn track(&mut self, qid: u16, cmd: NvmeCommand, pages_left: u32, pages: Vec<PageImage>) -> u64 {
        let c = self.next_cmd;
        self.next_cmd += 1;
        self.cmds.insert(
            c,
            CmdState {
                qid,
                cmd,
                pages_left,
                pages,
                failed: false,
            },
        );
        c
    }

    /// Retires command `c` with a data-less completion of `status` on its
    /// queue, returning its state.
    fn complete_cmd(&mut self, c: u64, status: NvmeStatus) -> CmdState {
        let st = self.cmds.remove(&c).expect("command state");
        let done = match status {
            NvmeStatus::Success => NvmeCompletion::success(st.cmd.cid, None),
            _ => NvmeCompletion::error(st.cmd.cid, status),
        };
        self.queues[st.qid as usize].complete(done);
        st
    }

    /// Rings the doorbell for queue `qid`: the device fetches and begins
    /// processing every submitted command.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn doorbell(
        &mut self,
        now: SimTime,
        qid: u16,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
    ) {
        while let Some(cmd) = self.queues[qid as usize].fetch() {
            if cmd.ndp {
                self.stats.ndp_commands.inc();
                self.in_engine(now, sched, |ext, ctx| ext.on_ndp_command(ctx, qid, cmd));
                continue;
            }
            let logical = self.config.ftl.logical_pages;
            let cid = cmd.cid;
            if cmd.nlb == 0 {
                self.queues[qid as usize]
                    .complete(NvmeCompletion::error(cid, NvmeStatus::InvalidField));
                continue;
            }
            if cmd.slba + cmd.nlb as u64 > logical {
                self.queues[qid as usize]
                    .complete(NvmeCompletion::error(cid, NvmeStatus::LbaOutOfRange));
                continue;
            }
            match cmd.opcode {
                NvmeOpcode::Read => {
                    self.stats.read_commands.inc();
                    self.stats.blocks_read.add(cmd.nlb as u64);
                    let nlb = cmd.nlb;
                    let pages = self.take_page_list(nlb as usize);
                    let c = self.track(qid, cmd, nlb, pages);
                    let tag = self.alloc_tag(c);
                    let dur = self.config.fw_command_time(nlb);
                    self.ftl
                        .charge_firmware(now, dur, tag, &mut |d, e| sched(d, SsdEvent::Ftl(e)));
                }
                NvmeOpcode::Write => {
                    self.stats.write_commands.inc();
                    self.stats.blocks_written.add(cmd.nlb as u64);
                    let bytes = cmd.payload_len();
                    let c = self.track(qid, cmd, 0, Vec::new());
                    let xfer = self
                        .pcie
                        .request(now, bytes, &mut |d, e| sched(d, SsdEvent::Pcie(e)));
                    self.dma_in.insert(xfer, c);
                }
            }
        }
    }

    /// Processes one device event.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: SsdEvent,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
    ) {
        match ev {
            SsdEvent::Ftl(fev) => {
                let mut outcomes = std::mem::take(&mut self.ftl_scratch);
                outcomes.clear();
                self.ftl.handle(
                    now,
                    fev,
                    &mut |d, e| sched(d, SsdEvent::Ftl(e)),
                    &mut outcomes,
                );
                for o in outcomes.drain(..) {
                    self.dispatch_ftl(now, o, sched);
                }
                self.ftl_scratch = outcomes;
            }
            SsdEvent::Pcie(pev) => {
                let xfer = self
                    .pcie
                    .handle(now, pev, &mut |d, e| sched(d, SsdEvent::Pcie(e)));
                self.dispatch_pcie(now, xfer, sched);
            }
        }
    }

    fn dispatch_ftl(
        &mut self,
        now: SimTime,
        outcome: FtlOutcome,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
    ) {
        match outcome {
            FtlOutcome::FwTaskDone { tag } if self.fw_tags.contains_key(&tag.0) => {
                let c = self.fw_tags.remove(&tag.0).expect("checked above");
                self.on_command_processed(now, c, sched);
            }
            FtlOutcome::ReadDone { req, data, .. } if self.read_reqs.contains_key(&req) => {
                let (c, page_idx) = self.read_reqs.remove(&req).expect("checked above");
                let st = self.cmds.get_mut(&c).expect("command state");
                // The command holds the FTL's image itself until the host
                // hands it back; a failed command has no reader for it.
                let spare = if st.failed {
                    data
                } else {
                    std::mem::replace(&mut st.pages[page_idx as usize], data)
                };
                self.ftl.recycle_page_image(spare);
                st.pages_left -= 1;
                if st.pages_left == 0 {
                    if st.failed {
                        self.fail_read_cmd(c);
                    } else {
                        self.start_read_dma(now, c, sched);
                    }
                }
            }
            FtlOutcome::ReadFailed { req, .. } if self.read_reqs.contains_key(&req) => {
                let (c, _) = self.read_reqs.remove(&req).expect("checked above");
                let st = self.cmds.get_mut(&c).expect("command state");
                st.failed = true;
                st.pages_left -= 1;
                if st.pages_left == 0 {
                    self.fail_read_cmd(c);
                }
            }
            FtlOutcome::WriteDone { req, .. } if self.write_reqs.contains_key(&req) => {
                let c = self.write_reqs.remove(&req).expect("checked above");
                let st = self.cmds.get_mut(&c).expect("command state");
                st.pages_left -= 1;
                if st.pages_left == 0 {
                    self.complete_cmd(c, NvmeStatus::Success);
                }
            }
            other => {
                let claimed =
                    self.in_engine(now, sched, |ext, ctx| ext.on_ftl_outcome(ctx, &other));
                assert!(claimed, "orphan FTL outcome: {other:?}");
            }
        }
    }

    /// Continues a command once its firmware processing charge completes.
    fn on_command_processed(
        &mut self,
        now: SimTime,
        c: u64,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
    ) {
        let st = self.cmds.get(&c).expect("command state");
        match st.cmd.opcode {
            NvmeOpcode::Read => {
                let slba = st.cmd.slba;
                let nlb = st.cmd.nlb;
                let Self {
                    ftl,
                    cmds,
                    read_reqs,
                    ..
                } = self;
                let st = cmds.get_mut(&c).expect("command state");
                for i in 0..nlb {
                    let started = ftl
                        .read_page(now, Lpn(slba + i as u64), &mut |d, e| {
                            sched(d, SsdEvent::Ftl(e))
                        })
                        .expect("validated range");
                    match started {
                        ReadStarted::CacheHit(data) => {
                            st.pages[i as usize] = data;
                            st.pages_left -= 1;
                        }
                        // The slot already holds the shared zero image.
                        ReadStarted::Unmapped => st.pages_left -= 1,
                        ReadStarted::Pending(req) => {
                            read_reqs.insert(req, (c, i));
                        }
                    }
                }
                if st.pages_left == 0 {
                    self.start_read_dma(now, c, sched);
                }
            }
            NvmeOpcode::Write => {
                let slba = st.cmd.slba;
                let nlb = st.cmd.nlb;
                let page_bytes = self.config.block_bytes();
                let Self {
                    ftl,
                    cmds,
                    write_reqs,
                    ..
                } = self;
                let st = cmds.get_mut(&c).expect("command state");
                let payload = st.cmd.payload.as_deref().unwrap_or_default();
                for i in 0..nlb {
                    let start = (i as usize * page_bytes).min(payload.len());
                    let end = ((i as usize + 1) * page_bytes).min(payload.len());
                    let req = ftl
                        .write_page(
                            now,
                            Lpn(slba + i as u64),
                            &payload[start..end],
                            &mut |d, e| sched(d, SsdEvent::Ftl(e)),
                        )
                        .expect("validated range");
                    write_reqs.insert(req, c);
                }
                st.pages_left = nlb;
            }
        }
    }

    /// Completes a conventional read whose media failed: no data crosses
    /// PCIe, every page image the command collected returns to the pool
    /// and the host sees a typed media error.
    fn fail_read_cmd(&mut self, c: u64) {
        let st = self.complete_cmd(c, NvmeStatus::MediaError);
        self.recycle_pages(st.pages);
    }

    fn start_read_dma(
        &mut self,
        now: SimTime,
        c: u64,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
    ) {
        // The link moves whole logical blocks however the host maps them.
        let bytes = self.cmds[&c].cmd.nlb as usize * self.config.block_bytes();
        let xfer = self
            .pcie
            .request(now, bytes, &mut |d, e| sched(d, SsdEvent::Pcie(e)));
        self.dma_out.insert(xfer, c);
    }

    fn dispatch_pcie(
        &mut self,
        now: SimTime,
        xfer: XferId,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
    ) {
        if let Some(c) = self.dma_out.remove(&xfer) {
            let st = self.cmds.remove(&c).expect("command state");
            self.queues[st.qid as usize].complete(NvmeCompletion::success(
                st.cmd.cid,
                Some(CmdData::Pages(st.pages)),
            ));
            return;
        }
        if let Some(c) = self.dma_in.remove(&xfer) {
            let nlb = self.cmds[&c].cmd.nlb;
            let tag = self.alloc_tag(c);
            let dur = self.config.fw_command_time(nlb);
            self.ftl
                .charge_firmware(now, dur, tag, &mut |d, e| sched(d, SsdEvent::Ftl(e)));
            return;
        }
        let claimed = self.in_engine(now, sched, |ext, ctx| ext.on_pcie_done(ctx, xfer));
        assert!(claimed, "orphan PCIe transfer: {xfer:?}");
    }

    /// Runs `f` on the NDP engine with the device context it works in.
    fn in_engine<R>(
        &mut self,
        now: SimTime,
        sched: &mut dyn FnMut(SimDuration, SsdEvent),
        f: impl FnOnce(&mut X, &mut DeviceCtx<'_>) -> R,
    ) -> R {
        let Self {
            ftl,
            pcie,
            queues,
            ext,
            host_buf_pool,
            ..
        } = self;
        let mut ctx = DeviceCtx {
            now,
            ftl,
            pcie,
            queues,
            bufs: host_buf_pool,
            sched,
        };
        f(ext, &mut ctx)
    }
}
