//! Event-driven scheduling engine for the NAND array.
//!
//! Every operation is a short pipeline of *phases*, each of which occupies
//! one resource for a fixed duration:
//!
//! * `Read` — die busy for tR (array read into the page register), then the
//!   channel bus busy for the page transfer out.
//! * `Program` — channel bus busy for the page transfer in, then the die
//!   busy for tPROG.
//! * `Erase` — die busy for tERASE.
//!
//! Dies operate independently, so array reads on different dies of one
//! channel overlap; the shared channel bus serialises transfers. This is
//! exactly the parallelism structure §2.2 of the paper describes ("data
//! accesses can be conducted in parallel to provide higher aggregated
//! bandwidth and hide high latency operations"). Every die and every
//! channel is a FIFO [`Server`] of operation ids; a channel's busy time
//! is its [`Server::busy`].

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use recssd_sim::stats::{Counter, LogHistogram};
use recssd_sim::{FxHashMap, IdMap, PageImage, PagePool, Server, SimDuration, SimTime};

use crate::fault::{FaultPlan, ReadFault};
use crate::{FlashConfig, PageOracle, PageStore, Ppa};

/// Identifier of an in-flight flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlashOpId(u64);

impl recssd_sim::IdKey for FlashOpId {
    fn id(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FlashOpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flash-op#{}", self.0)
    }
}

/// An operation submitted to the array.
#[derive(Debug, Clone, PartialEq)]
pub enum FlashOp {
    /// Read one page.
    Read {
        /// Page to read.
        ppa: Ppa,
    },
    /// Program one page. `data` may be shorter than the page (the rest of
    /// the page is zeros); it must not be longer.
    Program {
        /// Page to program. Pages within a block must be programmed in
        /// order, matching real NAND constraints.
        ppa: Ppa,
        /// Bytes to write (up to one page). A page image the array handed
        /// out (a GC relocation read, [`FlashArray::page_image_from`])
        /// is programmed without a copy and rejoins the pool afterwards.
        data: PageImage,
    },
    /// Erase one block (`ppa.page` must be zero).
    Erase {
        /// Block to erase, addressed by its first page.
        ppa: Ppa,
    },
}

impl FlashOp {
    fn ppa(&self) -> Ppa {
        match self {
            FlashOp::Read { ppa } | FlashOp::Program { ppa, .. } | FlashOp::Erase { ppa } => *ppa,
        }
    }

    /// The operation's kind, without its payload.
    pub fn kind(&self) -> FlashOpKind {
        match self {
            FlashOp::Read { .. } => FlashOpKind::Read,
            FlashOp::Program { .. } => FlashOpKind::Program,
            FlashOp::Erase { .. } => FlashOpKind::Erase,
        }
    }
}

/// Kind of flash operation (payload-free tag for [`FlashOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashOpKind {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// Events the array schedules for itself; route them back into
/// [`FlashArray::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashEvent {
    /// The current phase of `op` finished.
    PhaseDone {
        /// Operation whose phase completed.
        op: FlashOpId,
    },
}

/// A finished operation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCompletion {
    /// The operation's id.
    pub op: FlashOpId,
    /// What kind of operation completed.
    pub kind: FlashOpKind,
    /// The page (or block head, for erases) it addressed.
    pub ppa: Ppa,
    /// Page contents, for reads: a pooled image to hand back through
    /// [`FlashArray::recycle_page_buf`] once its last reader is done.
    pub data: Option<PageImage>,
    /// When the operation was submitted (for latency accounting).
    pub submitted_at: SimTime,
    /// An injected uncorrectable error hit this operation. The data is
    /// still carried (GC relocation models offline firmware recovery);
    /// host-facing layers must surface a media error instead of using it.
    pub failed: bool,
    /// An injected transient error extended this read by ECC retry
    /// senses (the read still succeeded).
    pub retried: bool,
    /// The `[start, end)` window the operation held its channel bus —
    /// the transfer out of a read, the transfer into a program; `None`
    /// for an erase, which holds only its die. These windows are what
    /// [`FlashStats::channel_busy`] sums.
    pub channel_window: Option<(SimTime, SimTime)>,
}

/// Errors rejected at submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The address is outside the configured geometry.
    InvalidPpa(Ppa),
    /// Program payload exceeds the page size.
    DataTooLarge {
        /// Bytes supplied.
        len: usize,
        /// Configured page size.
        page_bytes: usize,
    },
    /// Pages within a block must be programmed sequentially.
    ProgramOutOfOrder {
        /// The offending address.
        ppa: Ppa,
        /// The page index that must be programmed next in this block.
        expected_page: u32,
    },
    /// Erase must address a block head (`page == 0`).
    EraseNotBlockAligned(Ppa),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::InvalidPpa(ppa) => write!(f, "physical address out of range: {ppa}"),
            FlashError::DataTooLarge { len, page_bytes } => {
                write!(
                    f,
                    "program payload of {len} bytes exceeds page size {page_bytes}"
                )
            }
            FlashError::ProgramOutOfOrder { ppa, expected_page } => write!(
                f,
                "out-of-order program at {ppa}: block expects page {expected_page} next"
            ),
            FlashError::EraseNotBlockAligned(ppa) => {
                write!(f, "erase must address page 0 of a block, got {ppa}")
            }
        }
    }
}

impl std::error::Error for FlashError {}

/// Aggregate statistics of the array.
#[derive(Debug, Clone, Default)]
pub struct FlashStats {
    /// Completed page reads.
    pub reads: Counter,
    /// Completed page programs.
    pub programs: Counter,
    /// Completed block erases.
    pub erases: Counter,
    /// End-to-end operation latency in nanoseconds.
    pub op_latency: LogHistogram,
    /// Bus-busy time per channel: each channel server's service total
    /// (filled in by [`FlashArray::stats`]).
    pub channel_busy: Vec<SimDuration>,
}

/// Which of its two servers an operation's pipeline phase holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    Die,
    Channel,
}

#[derive(Debug)]
struct OpState {
    op: FlashOp,
    /// At most two phases per operation; a fixed array avoids a per-op
    /// heap allocation on the hottest submit path.
    phases: [(Hold, SimDuration); 2],
    n_phases: usize,
    cur: usize,
    submitted_at: SimTime,
    failed: bool,
    retried: bool,
    /// The channel phase's window, once it started.
    channel_window: Option<(SimTime, SimTime)>,
}

/// Waiters a die or channel holds before its queue grows. An NDP request
/// can fan a whole batch out across a handful of channels, so backlogs
/// routinely reach dozens of ops; pre-sizing keeps the hot
/// queue/dequeue cycle from growing a queue mid-run.
const SERVER_QUEUE_CAP: usize = 128;

/// Largest number of recycled page images the array keeps, over all size
/// classes. Sized to cover the deepest realistic read backlog (an NDP
/// request fanning a full batch out across the channels) plus the
/// page-cache eviction churn behind it, so steady-state reads allocate
/// nothing.
const PAGE_BUF_POOL_CAP: usize = 1024;

/// The NAND flash array: geometry, timing, per-resource scheduling and page
/// contents. See the [crate docs](crate) for the usage pattern.
#[derive(Debug)]
pub struct FlashArray {
    config: FlashConfig,
    dies: Vec<Server<FlashOpId>>,
    channels: Vec<Server<FlashOpId>>,
    store: PageStore,
    /// The write pointer of every block a program or an erase touched;
    /// any other block's follows from the preloaded ranges.
    block_write_ptr: FxHashMap<u64, u32>,
    ops: IdMap<FlashOpId, OpState>,
    next_op: u64,
    /// The one page pool of the device stack: per-class free-lists of
    /// content-sized images, the count handed out and the shared empty
    /// image (see [`FlashArray::recycle_page_buf`]).
    page_pool: PagePool,
    /// Optional fault-injection overlay (`None` = perfectly reliable).
    fault: Option<FaultPlan>,
    stats: FlashStats,
}

impl FlashArray {
    /// Creates an idle array with empty pages.
    pub fn new(config: FlashConfig) -> Self {
        let n_dies = config.geometry.total_dies() as usize;
        let n_channels = config.geometry.channels as usize;
        FlashArray {
            dies: (0..n_dies)
                .map(|_| Server::with_capacity(SERVER_QUEUE_CAP))
                .collect(),
            channels: (0..n_channels)
                .map(|_| Server::with_capacity(SERVER_QUEUE_CAP))
                .collect(),
            store: PageStore::new(),
            block_write_ptr: FxHashMap::default(),
            ops: IdMap::new(),
            next_op: 0,
            page_pool: PagePool::new(config.geometry.page_bytes, PAGE_BUF_POOL_CAP),
            fault: None,
            stats: FlashStats::default(),
            config,
        }
    }

    /// The array's configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> FlashStats {
        FlashStats {
            channel_busy: self.channels.iter().map(Server::busy).collect(),
            ..self.stats.clone()
        }
    }

    /// Resets the array's statistics — counters, the latency histogram
    /// and every die's and channel's busy total — and, if a fault plan
    /// is installed, its injection counters (RNG streams and schedules
    /// are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
        self.dies.iter_mut().for_each(Server::reset);
        self.channels.iter_mut().for_each(Server::reset);
        if let Some(plan) = self.fault.as_mut() {
            plan.reset_stats();
        }
    }

    /// Installs (or clears) the fault-injection plan. `None` restores
    /// perfectly reliable behaviour.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Mutable access to the installed fault plan (e.g. to extend its
    /// brownout schedule mid-run).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// `true` when no operations are in flight.
    pub fn idle(&self) -> bool {
        self.ops.is_empty()
    }

    /// Installs `oracle` as the content source for the linear page range
    /// `pages` and marks the covered blocks as programmed, simulating a
    /// device that was bulk-loaded before the experiment (§5 of the paper
    /// preloads embedding tables onto the OpenSSD the same way).
    ///
    /// The array keeps the range (as its content source), not its
    /// blocks: a covered block's write pointer is one past the last page
    /// of it any preload covers (see [`FlashArray::next_program_page`]).
    /// Only blocks that a program or an erase already touched hold an
    /// explicit pointer, which a preload raises to that value if it is
    /// lower.
    pub fn preload(&mut self, pages: Range<u64>, oracle: Arc<dyn PageOracle>) {
        let g = self.config.geometry;
        assert!(pages.end <= g.total_pages(), "preload range out of bounds");
        if pages.is_empty() {
            return;
        }
        for last in g.covered_blocks(pages.clone()) {
            let bidx = g.block_index(last.channel, last.die, last.block);
            if let Some(ptr) = self.block_write_ptr.get_mut(&bidx) {
                *ptr = (*ptr).max(last.page + 1);
            }
        }
        self.store.register_oracle(pages, oracle);
    }

    /// The write pointer the preloads alone leave `block` on lane
    /// `(channel, die)` at: one past the last page of it that a preloaded
    /// range covers, 0 if none does.
    fn preloaded_write_ptr(&self, channel: u32, die: u32, block: u32) -> u32 {
        let g = self.config.geometry;
        let stride = g.channels as u64 * g.dies_per_channel as u64;
        let ppb = g.pages_per_block as u64;
        // The lane's pages are `offset + m * stride`; the block's are the
        // page counters `m` in `block * ppb..(block + 1) * ppb`.
        let offset = die as u64 * g.channels as u64 + channel as u64;
        let first = offset + block as u64 * ppb * stride;
        let last = first + (ppb - 1) * stride;
        let covered = self.store.oracle_ranges().filter_map(|r| {
            if r.end <= first || r.start > last {
                return None;
            }
            // The lane's highest page in both the range and the block.
            let m = (last.min(r.end - 1) - offset) / stride;
            (offset + m * stride >= r.start).then_some((m % ppb) as u32 + 1)
        });
        covered.max().unwrap_or(0)
    }

    /// Direct, zero-time access to page contents (for assertions and for
    /// the FTL's internally cached pages). Returns the first `n` bytes.
    pub fn page_bytes_prefix(&self, ppa: Ppa, n: usize) -> Vec<u8> {
        let idx = self.config.geometry.linear_index(ppa);
        let page = self.store.read(idx, self.config.geometry.page_bytes);
        page[..n].to_vec()
    }

    /// The content `ppa` holds now, as a pooled image sized like a read's
    /// — untimed, uncounted, fault-free. Hand it back through
    /// [`FlashArray::recycle_page_buf`].
    pub fn page_image(&mut self, ppa: Ppa) -> PageImage {
        let idx = self.config.geometry.linear_index(ppa);
        self.store.read_image(idx, &mut self.page_pool)
    }

    /// Offers a page image back once a holder is done with it. While
    /// clones are alive elsewhere (the page cache, another reader) this
    /// only drops the caller's reference; the last holder's call retires
    /// the image into the free-list of its size class, where the next
    /// read of that class refills it in place instead of allocating.
    /// Images that are not one of this array's pages are dropped.
    pub fn recycle_page_buf(&mut self, image: PageImage) {
        self.page_pool.recycle(image);
    }

    /// A pooled page image holding `data` followed by zeros — how the FTL
    /// stages a host write so the write buffer, the page cache and the
    /// program operation share one image. It backs `data`, not the page.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than a page.
    pub fn page_image_from(&mut self, data: &[u8]) -> PageImage {
        let mut image = self.page_pool.take(data.len());
        image.refill(|content| {
            content[..data.len()].copy_from_slice(data);
            data.len()
        });
        image
    }

    /// The shared all-zero page image (what an unmapped page reads as):
    /// it backs nothing. Offering it to [`FlashArray::recycle_page_buf`]
    /// is harmless.
    pub fn zero_page(&self) -> PageImage {
        self.page_pool.zero()
    }

    /// Page images currently handed out: taken for a read or a staged
    /// write and not yet retired by their last holder. At idle this is
    /// exactly the set of images the layers above still cache; anything
    /// more is a leak. The shared empty image is never counted.
    pub fn page_images_out(&self) -> usize {
        self.page_pool.out()
    }

    /// Page images waiting in the free-lists, over all size classes.
    pub fn page_images_pooled(&self) -> usize {
        self.page_pool.pooled()
    }

    /// The next page expected by the sequential-program rule for `block`
    /// on `(channel, die)`: the block's explicit pointer once a program or
    /// an erase touched it (an erase sets it to 0, a program advances it,
    /// a later preload raises it), and otherwise one past the last page of
    /// it the preloaded ranges cover (0 for a block no preload covers).
    pub fn next_program_page(&self, channel: u32, die: u32, block: u32) -> u32 {
        let bidx = self.config.geometry.block_index(channel, die, block);
        match self.block_write_ptr.get(&bidx) {
            Some(&ptr) => ptr,
            None => self.preloaded_write_ptr(channel, die, block),
        }
    }

    /// Submits an operation.
    ///
    /// `sched` receives `(delay, event)` pairs that the caller must enqueue
    /// on its event loop and later route back through
    /// [`FlashArray::handle`].
    ///
    /// # Errors
    ///
    /// Returns a [`FlashError`] if the operation is malformed (bad address,
    /// oversized payload, out-of-order program, unaligned erase).
    pub fn submit(
        &mut self,
        now: SimTime,
        op: FlashOp,
        sched: &mut dyn FnMut(SimDuration, FlashEvent),
    ) -> Result<FlashOpId, FlashError> {
        let g = self.config.geometry;
        let ppa = op.ppa();
        if !g.contains(ppa) {
            return Err(FlashError::InvalidPpa(ppa));
        }
        match &op {
            FlashOp::Program { data, .. } => {
                if data.len() > g.page_bytes {
                    return Err(FlashError::DataTooLarge {
                        len: data.len(),
                        page_bytes: g.page_bytes,
                    });
                }
                let expected = self.next_program_page(ppa.channel, ppa.die, ppa.block);
                if expected != ppa.page {
                    return Err(FlashError::ProgramOutOfOrder {
                        ppa,
                        expected_page: expected,
                    });
                }
                let bidx = g.block_index(ppa.channel, ppa.die, ppa.block);
                self.block_write_ptr.insert(bidx, expected + 1);
            }
            FlashOp::Erase { ppa } => {
                if ppa.page != 0 {
                    return Err(FlashError::EraseNotBlockAligned(*ppa));
                }
            }
            FlashOp::Read { .. } => {}
        }

        let t = self.config.timing;
        let xfer = t.transfer_time(g.page_bytes);
        let (mut phases, n_phases) = match op.kind() {
            FlashOpKind::Read => ([(Hold::Die, t.read_time()), (Hold::Channel, xfer)], 2),
            FlashOpKind::Program => ([(Hold::Channel, xfer), (Hold::Die, t.program_time())], 2),
            FlashOpKind::Erase => (
                [(Hold::Die, t.erase_time()), (Hold::Die, SimDuration::ZERO)],
                1,
            ),
        };

        // Fault injection: reads draw their fault outcome at submission
        // (a transient error extends the array-sense phase, an
        // uncorrectable one flags the op), and an active brownout window
        // inflates every phase of every operation by an integer factor.
        let mut failed = false;
        let mut retried = false;
        if let Some(plan) = self.fault.as_mut() {
            if op.kind() == FlashOpKind::Read {
                match plan.draw_read() {
                    Some(ReadFault::Transient) => {
                        phases[0].1 += t.ecc_retry_time(plan.config().ecc_retry_reads);
                        retried = true;
                    }
                    Some(ReadFault::Uncorrectable) => failed = true,
                    None => {}
                }
            }
            for phase in phases.iter_mut().take(n_phases) {
                phase.1 = plan.inflate(now, phase.1);
            }
        }

        let id = FlashOpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(
            id,
            OpState {
                op,
                phases,
                n_phases,
                cur: 0,
                submitted_at: now,
                failed,
                retried,
                channel_window: None,
            },
        );
        self.enter_phase(now, id, sched);
        Ok(id)
    }

    /// The server `hold` of the operation addressing `ppa`.
    fn server(&mut self, ppa: Ppa, hold: Hold) -> &mut Server<FlashOpId> {
        match hold {
            Hold::Die => {
                let die = ppa.channel * self.config.geometry.dies_per_channel + ppa.die;
                &mut self.dies[die as usize]
            }
            Hold::Channel => &mut self.channels[ppa.channel as usize],
        }
    }

    /// Submits `id`'s current phase to its server: it starts at once when
    /// the server is idle and queues FIFO otherwise.
    fn enter_phase(
        &mut self,
        now: SimTime,
        id: FlashOpId,
        sched: &mut dyn FnMut(SimDuration, FlashEvent),
    ) {
        let st = &self.ops[&id];
        let (ppa, (hold, dur)) = (st.op.ppa(), st.phases[st.cur]);
        if let Some(d) = self.server(ppa, hold).start(now, dur, id) {
            self.begin(now, id, hold, d, sched);
        }
    }

    /// The one start site of every die and channel: `id`'s phase on
    /// `hold` starts at `now` and completes `d` later.
    fn begin(
        &mut self,
        now: SimTime,
        id: FlashOpId,
        hold: Hold,
        d: SimDuration,
        sched: &mut dyn FnMut(SimDuration, FlashEvent),
    ) {
        if hold == Hold::Channel {
            self.ops.get_mut(&id).expect("op in flight").channel_window = Some((now, now + d));
        }
        sched(d, FlashEvent::PhaseDone { op: id });
    }

    /// Processes one of the array's own events. Returns a completion when
    /// an operation finishes.
    ///
    /// # Panics
    ///
    /// Panics if `ev` refers to an operation this array does not own
    /// (which would indicate event routing corruption in the caller).
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: FlashEvent,
        sched: &mut dyn FnMut(SimDuration, FlashEvent),
    ) -> Option<FlashCompletion> {
        let FlashEvent::PhaseDone { op: id } = ev;
        let (ppa, hold, finished) = {
            let st = self.ops.get_mut(&id).expect("phase event for unknown op");
            let hold = st.phases[st.cur].0;
            st.cur += 1;
            (st.op.ppa(), hold, st.cur == st.n_phases)
        };

        // Release the server and start its next waiter, if any.
        let server = self.server(ppa, hold);
        let (done, next) = server.finish(now);
        debug_assert_eq!(done, id, "server released by non-owner");
        if let Some(d) = next {
            let next = server.current().expect("a queued op started");
            self.begin(now, next, hold, d, sched);
        }

        if !finished {
            self.enter_phase(now, id, sched);
            return None;
        }

        // Operation complete: apply its data effect and report.
        let st = self.ops.remove(&id).expect("op vanished mid-flight");
        let g = self.config.geometry;
        let ppa = st.op.ppa();
        let kind = st.op.kind();
        let failed = st.failed;
        let retried = st.retried;
        let data = match st.op {
            FlashOp::Read { ppa } => {
                self.stats.reads.inc();
                // Sized by what the page holds, not by the page.
                Some(self.page_image(ppa))
            }
            FlashOp::Program { ppa, data } => {
                self.stats.programs.inc();
                self.store.write(g.linear_index(ppa), data.used_prefix());
                // A GC relocation's image is exclusively ours and rejoins
                // the pool; a host write's is still held by the FTL.
                self.recycle_page_buf(data);
                None
            }
            FlashOp::Erase { ppa } => {
                self.stats.erases.inc();
                let bidx = g.block_index(ppa.channel, ppa.die, ppa.block);
                self.block_write_ptr.insert(bidx, 0);
                for page in 0..g.pages_per_block {
                    let p = Ppa { page, ..ppa };
                    self.store.erase(g.linear_index(p));
                }
                None
            }
        };
        self.stats
            .op_latency
            .record(now.saturating_since(st.submitted_at).as_ns());
        Some(FlashCompletion {
            op: id,
            kind,
            ppa,
            data,
            submitted_at: st.submitted_at,
            failed,
            retried,
            channel_window: st.channel_window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd_sim::EventQueue;

    fn drain(
        flash: &mut FlashArray,
        queue: &mut EventQueue<FlashEvent>,
    ) -> Vec<(SimTime, FlashCompletion)> {
        let mut done = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            let mut pending = Vec::new();
            if let Some(c) = flash.handle(now, ev, &mut |d, e| pending.push((d, e))) {
                done.push((now, c));
            }
            for (d, e) in pending {
                queue.push_after(d, e);
            }
        }
        done
    }

    /// The page at `(channel, die, block, page)`.
    fn ppa(channel: u32, die: u32, block: u32, page: u32) -> Ppa {
        Ppa {
            channel,
            die,
            block,
            page,
        }
    }

    fn read(ppa: Ppa) -> FlashOp {
        FlashOp::Read { ppa }
    }

    fn program(ppa: Ppa, data: &[u8]) -> FlashOp {
        let data = data.to_vec().into();
        FlashOp::Program { ppa, data }
    }

    fn submit(
        flash: &mut FlashArray,
        queue: &mut EventQueue<FlashEvent>,
        op: FlashOp,
    ) -> FlashOpId {
        flash
            .submit(queue.now(), op, &mut |d, e| queue.push_after(d, e))
            .expect("valid op")
    }

    #[test]
    fn single_read_latency_is_tr_plus_transfer() {
        let cfg = FlashConfig::cosmos_small();
        let expected = cfg.timing.read_time() + cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        submit(&mut flash, &mut q, read(ppa(0, 0, 0, 0)));
        let done = drain(&mut flash, &mut q);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, SimTime::ZERO + expected);
        assert!(flash.idle());
    }

    #[test]
    fn program_then_read_round_trips_data() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        let mut q = EventQueue::new();
        let ppa = ppa(1, 1, 2, 0);
        submit(&mut flash, &mut q, program(ppa, &[1, 2, 3, 4]));
        drain(&mut flash, &mut q);
        submit(&mut flash, &mut q, FlashOp::Read { ppa });
        let done = drain(&mut flash, &mut q);
        let data = done[0].1.data.as_ref().unwrap().to_vec();
        assert_eq!(data.len(), flash.config().geometry.page_bytes);
        assert_eq!(&data[..4], &[1, 2, 3, 4]);
        assert!(data[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn reads_on_different_channels_fully_overlap() {
        let cfg = FlashConfig::cosmos_small();
        let one = cfg.timing.read_time() + cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        for ch in 0..2 {
            submit(&mut flash, &mut q, read(ppa(ch, 0, 0, 0)));
        }
        let done = drain(&mut flash, &mut q);
        let finish = done.iter().map(|(t, _)| *t).max().unwrap();
        assert_eq!(finish, SimTime::ZERO + one, "two channels = one latency");
    }

    #[test]
    fn reads_on_same_die_serialise_array_time() {
        let cfg = FlashConfig::cosmos_small();
        let tr = cfg.timing.read_time();
        let xfer = cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        for page in 0..2 {
            submit(&mut flash, &mut q, read(ppa(0, 0, 0, page)));
        }
        let done = drain(&mut flash, &mut q);
        let finish = done.iter().map(|(t, _)| *t).max().unwrap();
        // Second array read starts only after the first releases the die;
        // its transfer then queues behind the first transfer.
        let expected = SimTime::ZERO + tr + tr.max(xfer) + xfer;
        assert_eq!(finish, expected);
    }

    #[test]
    fn dies_on_one_channel_overlap_tr_but_share_bus() {
        let cfg = FlashConfig::cosmos_small();
        let tr = cfg.timing.read_time();
        let xfer = cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        for die in 0..2 {
            submit(
                &mut flash,
                &mut q,
                FlashOp::Read {
                    ppa: Ppa {
                        channel: 0,
                        die,
                        block: 0,
                        page: 0,
                    },
                },
            );
        }
        let done = drain(&mut flash, &mut q);
        let finish = done.iter().map(|(t, _)| *t).max().unwrap();
        // Both tRs overlap; the two transfers serialise on the bus.
        assert_eq!(finish, SimTime::ZERO + tr + xfer + xfer);
    }

    #[test]
    fn sustained_channel_throughput_is_bus_bound() {
        let cfg = FlashConfig::cosmos_small();
        let xfer = cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let tr = cfg.timing.read_time();
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        let n = 16;
        for i in 0..n {
            submit(&mut flash, &mut q, read(ppa(0, i % 2, 0, i / 2)));
        }
        let done = drain(&mut flash, &mut q);
        let finish = done.iter().map(|(t, _)| *t).max().unwrap();
        // Pipeline: fill with one tR, then n transfers back to back.
        let expected = SimTime::ZERO + tr + xfer * (n as u64);
        let slack = SimDuration::from_us(200);
        assert!(
            finish >= expected - slack && finish <= expected + slack * 2,
            "finish={finish} expected≈{expected}"
        );
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        let mut q: EventQueue<FlashEvent> = EventQueue::new();
        let ppa = ppa(0, 0, 0, 3);
        let err = flash
            .submit(q.now(), program(ppa, &[1]), &mut |d, e| q.push_after(d, e))
            .unwrap_err();
        assert_eq!(
            err,
            FlashError::ProgramOutOfOrder {
                ppa,
                expected_page: 0
            }
        );
    }

    #[test]
    fn rewriting_a_page_requires_erase() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        let mut q = EventQueue::new();
        let ppa = ppa(0, 0, 0, 0);
        submit(&mut flash, &mut q, program(ppa, &[1]));
        drain(&mut flash, &mut q);
        // Same page again: write pointer moved past it.
        let err = flash
            .submit(q.now(), program(ppa, &[2]), &mut |d, e| q.push_after(d, e))
            .unwrap_err();
        assert!(matches!(err, FlashError::ProgramOutOfOrder { .. }));
        // After an erase the block accepts page 0 again.
        submit(&mut flash, &mut q, FlashOp::Erase { ppa });
        drain(&mut flash, &mut q);
        assert_eq!(flash.next_program_page(0, 0, 0), 0);
        submit(&mut flash, &mut q, program(ppa, &[2]));
        drain(&mut flash, &mut q);
        assert_eq!(flash.page_bytes_prefix(ppa, 1), vec![2]);
    }

    #[test]
    fn erase_clears_whole_block() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        let mut q = EventQueue::new();
        for page in 0..3 {
            submit(
                &mut flash,
                &mut q,
                program(ppa(0, 0, 1, page), &[page as u8 + 1]),
            );
        }
        drain(&mut flash, &mut q);
        submit(
            &mut flash,
            &mut q,
            FlashOp::Erase {
                ppa: ppa(0, 0, 1, 0),
            },
        );
        drain(&mut flash, &mut q);
        for page in 0..3 {
            assert_eq!(flash.page_bytes_prefix(ppa(0, 0, 1, page), 1), vec![0]);
        }
    }

    #[test]
    fn invalid_addresses_rejected() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        let mut q: EventQueue<FlashEvent> = EventQueue::new();
        let bad = ppa(99, 0, 0, 0);
        assert_eq!(
            flash
                .submit(q.now(), FlashOp::Read { ppa: bad }, &mut |d, e| q
                    .push_after(d, e))
                .unwrap_err(),
            FlashError::InvalidPpa(bad)
        );
        let head = ppa(0, 0, 0, 1);
        assert_eq!(
            flash
                .submit(q.now(), FlashOp::Erase { ppa: head }, &mut |d, e| q
                    .push_after(d, e))
                .unwrap_err(),
            FlashError::EraseNotBlockAligned(head)
        );
        let err = flash
            .submit(
                q.now(),
                program(ppa(0, 0, 0, 0), &[0u8; 17 * 1024]),
                &mut |d, e| q.push_after(d, e),
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::DataTooLarge { .. }));
    }

    #[test]
    fn preload_oracle_reads_and_blocks_marked_written() {
        #[derive(Debug)]
        struct IdxOracle;
        impl PageOracle for IdxOracle {
            fn fill_page(&self, page_index: u64, out: &mut [u8]) {
                out[..8].copy_from_slice(&page_index.to_le_bytes());
            }
        }
        let cfg = FlashConfig::cosmos_small();
        let g = cfg.geometry;
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        // 2 channels x 2 dies (stripe width 4): 40 preloaded pages put 10
        // page-counters on every lane, all within block 0.
        flash.preload(0..40, Arc::new(IdxOracle));
        for c in 0..2 {
            for d in 0..2 {
                assert_eq!(flash.next_program_page(c, d, 0), 10);
                assert_eq!(flash.next_program_page(c, d, 1), 0);
            }
        }
        let ppa = g.ppa_of_index(33);
        submit(&mut flash, &mut q, FlashOp::Read { ppa });
        let done = drain(&mut flash, &mut q);
        let data = done[0].1.data.as_ref().unwrap();
        assert_eq!(
            u64::from_le_bytes(data.bytes_at(0, 8)[..].try_into().unwrap()),
            33
        );
        // A partial-stripe preload only advances the touched lanes.
        let mut flash2 = FlashArray::new(FlashConfig::cosmos_small());
        flash2.preload(0..2, Arc::new(IdxOracle));
        assert_eq!(flash2.next_program_page(0, 0, 0), 1);
        assert_eq!(flash2.next_program_page(1, 0, 0), 1);
        assert_eq!(flash2.next_program_page(0, 1, 0), 0);
    }

    proptest::proptest! {
        /// Preloads kept as page ranges give every block the write
        /// pointer the per-block rule gives it: a preload raises the
        /// pointer to one past the last page of the block it covers, a
        /// program advances it, an erase resets it to 0. The draws include
        /// overlapping, repeated and adjacent preloads (the last kind
        /// shares a block with its neighbour), and preloads after erases.
        #[test]
        fn write_pointers_follow_the_per_block_rule(
            ops in proptest::collection::vec((0u8..8, 0u64..256, 0u64..40), 1..160),
        ) {
            #[derive(Debug)]
            struct Zeros;
            impl PageOracle for Zeros {
                fn fill_page(&self, _: u64, _: &mut [u8]) {}
            }
            let g = crate::FlashGeometry {
                channels: 2,
                dies_per_channel: 2,
                blocks_per_die: 16,
                pages_per_block: 4,
                page_bytes: 256,
            };
            let timing = crate::FlashTiming::cosmos();
            let mut flash = FlashArray::new(FlashConfig { geometry: g, timing });
            let mut q = EventQueue::new();
            let mut rule: FxHashMap<u64, u32> = FxHashMap::default();
            let (mut last, mut repeat) = (0..0, 0..0);
            let blocks: Vec<Ppa> = (0..g.total_blocks())
                .map(|b| {
                    let lane = (b / g.blocks_per_die as u64) as u32;
                    let block = (b % g.blocks_per_die as u64) as u32;
                    ppa(lane / g.dies_per_channel, lane % g.dies_per_channel, block, 0)
                })
                .collect();
            for (op, a, b) in ops {
                let block = blocks[a as usize % blocks.len()];
                let bidx = g.block_index(block.channel, block.die, block.block);
                match op {
                    0..=2 => {
                        let pages = match op {
                            0 => a..(a + b % 8).min(g.total_pages()),
                            1 => last.end..(last.end + b).min(g.total_pages()),
                            _ => repeat.clone(),
                        };
                        for end in g.covered_blocks(pages.clone()) {
                            let bidx = g.block_index(end.channel, end.die, end.block);
                            let ptr = rule.entry(bidx).or_insert(0);
                            *ptr = (*ptr).max(end.page + 1);
                        }
                        flash.preload(pages.clone(), Arc::new(Zeros));
                        repeat = if b % 3 == 0 { pages.clone() } else { repeat };
                        last = pages;
                    }
                    3..=5 => {
                        let page = flash.next_program_page(block.channel, block.die, block.block);
                        if page < g.pages_per_block {
                            let at = Ppa { page, ..block };
                            submit(&mut flash, &mut q, program(at, &[a as u8 | 1]));
                            drain(&mut flash, &mut q);
                            rule.insert(bidx, page + 1);
                        }
                    }
                    _ => {
                        submit(&mut flash, &mut q, FlashOp::Erase { ppa: block });
                        drain(&mut flash, &mut q);
                        rule.insert(bidx, 0);
                    }
                }
                for block in &blocks {
                    let bidx = g.block_index(block.channel, block.die, block.block);
                    assert_eq!(
                        flash.next_program_page(block.channel, block.die, block.block),
                        rule.get(&bidx).copied().unwrap_or(0),
                        "{block} after op {op}"
                    );
                }
            }
        }
    }

    /// ROADMAP 7(a), "every pool back to inventory at idle", for a pool
    /// that is now one free-list per size class: whatever mix of 128 B,
    /// 4 KB and full pages was read, programmed and relocated,
    /// `page_images_out()` is exactly what the caller still holds, and no
    /// mix of classes takes the free-lists past the one total cap.
    #[test]
    fn page_images_of_every_class_return_to_inventory() {
        #[derive(Debug)]
        struct Mixed;
        impl Mixed {
            fn extent(idx: u64, page_bytes: usize) -> usize {
                [128, 4096, page_bytes][(idx % 3) as usize]
            }
        }
        impl PageOracle for Mixed {
            fn fill_page(&self, idx: u64, out: &mut [u8]) {
                let extent = Self::extent(idx, 16 * 1024);
                assert!(out.len() >= extent && out.iter().all(|&b| b == 0));
                out[..extent].fill(idx as u8 | 1);
            }
            fn filled_prefix(&self, idx: u64, page_bytes: usize) -> usize {
                Self::extent(idx, page_bytes)
            }
        }
        let cfg = FlashConfig::cosmos_small();
        let g = cfg.geometry;
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        // 1 280 preloaded pages: 320 page-counters (20 blocks) a lane.
        const PRELOADED: u64 = 1280;
        flash.preload(0..PRELOADED, Arc::new(Mixed));
        let expected = |idx: u64| {
            let mut page = vec![0u8; g.page_bytes];
            page[..Mixed::extent(idx, g.page_bytes)].fill(idx as u8 | 1);
            page
        };

        // A read burst deeper than the pool's cap, every image held.
        for idx in 0..PRELOADED {
            let ppa = g.ppa_of_index(idx);
            submit(&mut flash, &mut q, FlashOp::Read { ppa });
        }
        let mut held: Vec<(u64, PageImage)> = drain(&mut flash, &mut q)
            .into_iter()
            .map(|(_, c)| (g.linear_index(c.ppa), c.data.expect("read data")))
            .collect();
        assert_eq!(held.len() as u64, PRELOADED);
        assert_eq!(flash.page_images_out(), held.len());
        assert_eq!(flash.page_images_pooled(), 0);
        for (idx, image) in &held {
            assert_eq!(image.len(), g.page_bytes);
            assert!(image.to_vec() == expected(*idx), "page {idx}");
        }

        // GC-style relocations: a read's image is programmed elsewhere
        // without a copy and rejoins the pool when the program completes.
        // Staged host writes beside them: the caller keeps a clone (the
        // FTL's write buffer), so those stay out until it lets go.
        let mut relocated = Vec::new();
        let moving: Vec<_> = held.drain(..g.pages_per_block as usize).collect();
        for (page, (idx, data)) in (0..).zip(moving) {
            let ppa = ppa(1, 1, 40, page);
            relocated.push((ppa, idx));
            submit(&mut flash, &mut q, FlashOp::Program { ppa, data });
            let staged = flash.page_image_from(&vec![0xC3; 1 + 700 * page as usize]);
            held.push((u64::MAX, staged.clone()));
            let ppa = Ppa { block: 41, ..ppa };
            submit(&mut flash, &mut q, FlashOp::Program { ppa, data: staged });
        }
        drain(&mut flash, &mut q);
        assert!(flash.idle());
        assert_eq!(flash.page_images_out(), held.len());
        assert_eq!(flash.page_images_pooled(), relocated.len());
        // A relocated page reads back as what was read, now from its
        // stored (trimmed) length.
        for &(ppa, idx) in &relocated {
            submit(&mut flash, &mut q, FlashOp::Read { ppa });
            let data = drain(&mut flash, &mut q).remove(0).1.data.expect("data");
            assert!(data.to_vec() == expected(idx), "relocated page {idx}");
            flash.recycle_page_buf(data);
        }
        assert_eq!(flash.page_images_out(), held.len());

        // The last holder lets go of everything: nothing is out, and the
        // three classes together stop at the cap.
        assert!(held.len() > PAGE_BUF_POOL_CAP);
        for (_, image) in held.drain(..) {
            flash.recycle_page_buf(image);
            assert!(flash.page_images_pooled() <= PAGE_BUF_POOL_CAP);
        }
        assert_eq!(flash.page_images_out(), 0);
        assert_eq!(flash.page_images_pooled(), PAGE_BUF_POOL_CAP);

        // Steady state: a burst of each class is served from inventory
        // and returns to it.
        for round in 0..3 {
            for idx in 0..96 {
                let ppa = g.ppa_of_index(idx);
                submit(&mut flash, &mut q, FlashOp::Read { ppa });
            }
            let done = drain(&mut flash, &mut q);
            assert_eq!(flash.page_images_out(), done.len());
            assert_eq!(
                flash.page_images_pooled() + done.len(),
                PAGE_BUF_POOL_CAP,
                "round {round} allocated past its inventory"
            );
            for (_, c) in done {
                let idx = g.linear_index(c.ppa);
                let data = c.data.expect("read data");
                assert!(data.to_vec() == expected(idx), "page {idx}");
                flash.recycle_page_buf(data);
            }
            assert_eq!(flash.page_images_out(), 0);
            assert_eq!(flash.page_images_pooled(), PAGE_BUF_POOL_CAP);
        }
    }

    #[test]
    fn quiet_fault_plan_is_timing_identical() {
        let run = |plan: Option<crate::FaultPlan>| {
            let mut flash = FlashArray::new(FlashConfig::cosmos_small());
            flash.set_fault_plan(plan);
            let mut q = EventQueue::new();
            for i in 0..8 {
                submit(&mut flash, &mut q, read(ppa(i % 2, 0, 0, i / 2)));
            }
            drain(&mut flash, &mut q)
                .into_iter()
                .map(|(t, c)| (t, c.op, c.failed))
                .collect::<Vec<_>>()
        };
        let without = run(None);
        let quiet = run(Some(crate::FaultPlan::new(crate::FaultConfig::quiet(5))));
        assert_eq!(without, quiet, "a quiet plan must not perturb anything");
        assert!(quiet.iter().all(|&(_, _, failed)| !failed));
    }

    #[test]
    fn certain_transient_fault_extends_read_latency() {
        let cfg = FlashConfig::cosmos_small();
        let base = cfg.timing.read_time() + cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let retry = cfg.timing.ecc_retry_time(2);
        let mut flash = FlashArray::new(cfg);
        flash.set_fault_plan(Some(crate::FaultPlan::new(crate::FaultConfig {
            transient_read_error_rate: 1.0,
            ecc_retry_reads: 2,
            ..crate::FaultConfig::quiet(1)
        })));
        let mut q = EventQueue::new();
        submit(&mut flash, &mut q, read(ppa(0, 0, 0, 0)));
        let done = drain(&mut flash, &mut q);
        assert_eq!(done[0].0, SimTime::ZERO + base + retry);
        assert!(!done[0].1.failed, "transient errors are recovered");
        assert_eq!(flash.fault_plan().unwrap().stats().transient.get(), 1);
    }

    #[test]
    fn certain_uncorrectable_fault_flags_completion() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        flash.set_fault_plan(Some(crate::FaultPlan::new(crate::FaultConfig {
            uncorrectable_rate: 1.0,
            ..crate::FaultConfig::quiet(1)
        })));
        let mut q = EventQueue::new();
        submit(&mut flash, &mut q, read(ppa(0, 0, 0, 0)));
        let done = drain(&mut flash, &mut q);
        assert!(done[0].1.failed);
        assert!(done[0].1.data.is_some(), "failed reads still carry data");
        assert_eq!(flash.fault_plan().unwrap().stats().uncorrectable.get(), 1);
    }

    #[test]
    fn brownout_window_inflates_all_op_kinds() {
        let cfg = FlashConfig::cosmos_small();
        let base = cfg.timing.read_time() + cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let mut flash = FlashArray::new(cfg);
        flash.set_fault_plan(Some(crate::FaultPlan::new(crate::FaultConfig {
            brownouts: vec![crate::BrownoutWindow {
                start: SimTime::ZERO,
                end: SimTime::ZERO + SimDuration::from_ms(1),
                factor: 3,
            }],
            ..crate::FaultConfig::quiet(1)
        })));
        let mut q = EventQueue::new();
        submit(&mut flash, &mut q, read(ppa(0, 0, 0, 0)));
        let done = drain(&mut flash, &mut q);
        assert_eq!(done[0].0, SimTime::ZERO + base * 3);
        assert!(!done[0].1.failed);
    }

    /// A completion reports the window its op held the channel — the
    /// transfer in of a program (its first phase), the transfer out of a
    /// read (its last), none for an erase — and those windows are what
    /// `channel_busy` sums.
    #[test]
    fn completions_carry_their_channel_window() {
        let cfg = FlashConfig::cosmos_small();
        let xfer = cfg.timing.transfer_time(cfg.geometry.page_bytes);
        let sensed = SimTime::ZERO + cfg.timing.read_time().max(xfer);
        let mut flash = FlashArray::new(cfg);
        let mut q = EventQueue::new();
        submit(&mut flash, &mut q, program(ppa(0, 0, 0, 0), &[1]));
        submit(&mut flash, &mut q, read(ppa(0, 1, 0, 0)));
        submit(
            &mut flash,
            &mut q,
            FlashOp::Erase {
                ppa: ppa(1, 0, 0, 0),
            },
        );
        let mut windows: Vec<_> = drain(&mut flash, &mut q)
            .into_iter()
            .map(|(_, c)| (c.kind as u8, c.channel_window))
            .collect();
        windows.sort_unstable_by_key(|w| w.0);
        let t0 = SimTime::ZERO;
        assert_eq!(
            windows,
            [
                (FlashOpKind::Read as u8, Some((sensed, sensed + xfer))),
                (FlashOpKind::Program as u8, Some((t0, t0 + xfer))),
                (FlashOpKind::Erase as u8, None),
            ]
        );
        assert_eq!(flash.stats().channel_busy, [xfer * 2, SimDuration::ZERO]);
    }

    #[test]
    fn stats_track_operations() {
        let mut flash = FlashArray::new(FlashConfig::cosmos_small());
        let mut q = EventQueue::new();
        submit(&mut flash, &mut q, program(ppa(0, 0, 0, 0), &[1]));
        submit(&mut flash, &mut q, read(ppa(1, 0, 0, 0)));
        let mut done = drain(&mut flash, &mut q);
        assert_eq!(flash.stats().reads.get(), 1);
        assert_eq!(flash.stats().programs.get(), 1);
        assert_eq!(flash.stats().op_latency.count(), 2);
        assert!(flash.stats().channel_busy[0] > SimDuration::ZERO);
        assert!(flash.stats().channel_busy[1] > SimDuration::ZERO);

        // The latency recorder resolves a p99 to a 1/32 sub-bucket, not a
        // power of two: 150 more unqueued reads put the p99 at one read's
        // latency (~156 us), far from both the next power-of-two edge
        // (262 us) and the slow program that holds the max.
        for i in 0..150 {
            let ppa = ppa(1, 0, 1 + i / 16, i % 16);
            submit(&mut flash, &mut q, FlashOp::Read { ppa });
            done.extend(drain(&mut flash, &mut q));
        }
        let mut lat: Vec<u64> = done
            .iter()
            .map(|(t, c)| t.saturating_since(c.submitted_at).as_ns())
            .collect();
        lat.sort_unstable();
        let exact = lat[(lat.len() * 99).div_ceil(100) - 1];
        assert!(exact + exact / 32 < exact.next_power_of_two() - 1);
        assert!(exact.next_power_of_two() - 1 < *lat.last().unwrap());
        let p99 = flash.stats().op_latency.percentile(99.0).unwrap();
        assert!(
            (exact..=exact + exact / 32).contains(&p99),
            "p99 {p99} vs exact {exact}"
        );
    }
}
