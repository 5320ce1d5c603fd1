//! The GreedyFTL: read/write paths, page cache, firmware core and
//! asynchronous greedy garbage collection.

use std::fmt;
use std::sync::Arc;

use recssd_flash::{
    FlashArray, FlashCompletion, FlashError, FlashEvent, FlashOp, FlashOpId, PageOracle, Ppa,
};
use recssd_obs::trace::{track, SpanId, Tracer};
use recssd_sim::stats::{Counter, HitStats};
use recssd_sim::{FxHashMap, IdMap, LruCache, PageImage, Server, SimDuration, SimTime};

use crate::{BlockAllocator, EnginePoolConfig, FtlConfig, FwTag, Lpn, MappingTable};

/// Events the FTL schedules for itself; route them back into
/// [`GreedyFtl::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlEvent {
    /// An event belonging to the underlying flash array.
    Flash(FlashEvent),
    /// The firmware core finished its current task.
    FwDone,
    /// Engine `i` of the per-channel pool finished its current task.
    EngineDone(u32),
}

/// Results emitted by [`GreedyFtl::handle`]. Every variant returns the
/// tag its caller supplied when it started the work — a page read, a
/// page write or a firmware charge — so the caller routes a completion
/// by the tag alone and keeps no map of ids the FTL minted.
#[derive(Debug, Clone)]
pub enum FtlOutcome {
    /// A pending logical-page read completed from flash.
    ReadDone {
        /// The tag given to [`GreedyFtl::read_page_for`].
        tag: FwTag,
        /// The logical page read.
        lpn: Lpn,
        /// The page's contents: the one pooled image of the page (the
        /// page cache may hold a clone). Hand it back through
        /// [`GreedyFtl::recycle_page_image`] when done.
        data: PageImage,
    },
    /// A pending logical-page read hit an injected uncorrectable media
    /// error: no data is delivered and the layer above must surface a
    /// typed device error for the owning command.
    ReadFailed {
        /// The tag given to [`GreedyFtl::read_page_for`].
        tag: FwTag,
        /// The logical page whose read failed.
        lpn: Lpn,
    },
    /// A logical-page write was durably programmed.
    WriteDone {
        /// The tag given to [`GreedyFtl::write_page`].
        tag: FwTag,
        /// The logical page written.
        lpn: Lpn,
    },
    /// A firmware task charged via [`GreedyFtl::charge`] finished.
    FwTaskDone {
        /// The tag given to [`GreedyFtl::charge`].
        tag: FwTag,
    },
}

impl FtlOutcome {
    /// The caller's tag this outcome returns.
    pub fn tag(&self) -> FwTag {
        match self {
            FtlOutcome::ReadDone { tag, .. }
            | FtlOutcome::ReadFailed { tag, .. }
            | FtlOutcome::WriteDone { tag, .. }
            | FtlOutcome::FwTaskDone { tag } => *tag,
        }
    }
}

/// Synchronous result of starting a logical read.
#[derive(Debug, Clone)]
pub enum ReadStarted {
    /// Served from SSD DRAM (write buffer or page cache) with no flash
    /// access; the caller is responsible for charging any firmware time.
    CacheHit(PageImage),
    /// The logical page was never written; it reads as zeros
    /// ([`GreedyFtl::zero_page`] is the shared image of that).
    Unmapped,
    /// A flash read is in flight; a [`FtlOutcome::ReadDone`] (or
    /// [`FtlOutcome::ReadFailed`]) carrying this tag — the caller's own,
    /// echoed — will follow.
    Pending(FwTag),
}

/// FTL-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// Logical address beyond the configured capacity.
    LpnOutOfRange(Lpn),
    /// No free physical pages (the device is overfilled faster than GC can
    /// reclaim).
    DeviceFull,
    /// Payload larger than a page.
    DataTooLarge {
        /// Bytes supplied.
        len: usize,
        /// Page size.
        page_bytes: usize,
    },
    /// An error surfaced by the flash layer.
    Flash(FlashError),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LpnOutOfRange(lpn) => write!(f, "logical page out of range: {lpn}"),
            FtlError::DeviceFull => write!(f, "no free physical pages available"),
            FtlError::DataTooLarge { len, page_bytes } => {
                write!(f, "payload of {len} bytes exceeds page size {page_bytes}")
            }
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl std::error::Error for FtlError {}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

/// Aggregate FTL statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Logical reads issued by the host/firmware layers above.
    pub host_reads: Counter,
    /// Logical writes issued.
    pub host_writes: Counter,
    /// Reads of never-written pages.
    pub unmapped_reads: Counter,
    /// Reads absorbed by the in-flight write buffer.
    pub write_buffer_hits: Counter,
    /// Pages relocated by garbage collection.
    pub gc_relocated_pages: Counter,
    /// Blocks erased by garbage collection.
    pub gc_erased_blocks: Counter,
}

impl FtlStats {
    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[derive(Debug)]
enum Pending {
    HostRead {
        tag: FwTag,
        lpn: Lpn,
        ppa: Ppa,
        cause: u64,
    },
    HostWrite {
        tag: FwTag,
        lpn: Lpn,
    },
    GcRead {
        die: usize,
        lpn: Lpn,
        old: Ppa,
    },
    GcWrite {
        die: usize,
        lpn: Lpn,
        old: Ppa,
        new: Ppa,
    },
    GcErase {
        die: usize,
        channel: u32,
        die_in_ch: u32,
        block: u32,
    },
}

#[derive(Debug)]
struct GcJob {
    victim: u32,
    reads_left: usize,
    writes_left: usize,
}

/// The greedy FTL modelled on the Cosmos+ OpenSSD firmware. See the
/// [crate docs](crate) for the architecture overview and the event-driven
/// usage pattern.
#[derive(Debug)]
pub struct GreedyFtl {
    config: FtlConfig,
    flash: FlashArray,
    map: MappingTable,
    alloc: BlockAllocator,
    cache: LruCache<u64, PageImage>,
    write_buffer: FxHashMap<u64, PageImage>,
    /// The serial firmware core, serving tasks tagged with their
    /// caller's tag and cause.
    fw: Server<(FwTag, u64)>,
    /// The per-channel SLS engines of [`FtlConfig::engines`] (empty =
    /// single-core firmware).
    engines: Vec<Server<(FwTag, u64)>>,
    pending: IdMap<FlashOpId, Pending>,
    gc_jobs: FxHashMap<usize, GcJob>,
    stats: FtlStats,
    /// Sim-time span tracer (disabled by default: every emission is a
    /// no-op `None` check until [`GreedyFtl::set_tracer`] installs a sink).
    tracer: Tracer,
}

impl GreedyFtl {
    /// Creates an FTL over a fresh flash array.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`FtlConfig::validate`]).
    pub fn new(config: FtlConfig) -> Self {
        config.validate();
        GreedyFtl {
            flash: FlashArray::new(config.flash.clone()),
            map: MappingTable::new(),
            alloc: BlockAllocator::new(config.flash.geometry),
            cache: LruCache::new(config.page_cache_pages),
            write_buffer: FxHashMap::default(),
            fw: Server::new(),
            engines: (0..config.engines.map_or(0, |e| e.engines))
                .map(|_| Server::new())
                .collect(),
            pending: IdMap::new(),
            gc_jobs: FxHashMap::default(),
            stats: FtlStats::default(),
            tracer: Tracer::disabled(),
            config,
        }
    }

    /// Consumer-side return path for page images handed out via
    /// [`FtlOutcome::ReadDone`] / [`ReadStarted::CacheHit`]: once a reader
    /// has folded a page in, it offers the image back. It rejoins the
    /// flash array's pool only when this was the last reference (it may
    /// still sit in the page cache, in which case the eventual eviction
    /// retires it).
    pub fn recycle_page_image(&mut self, image: PageImage) {
        self.flash.recycle_page_buf(image);
    }

    /// The shared all-zero page image, for callers that need the bytes of
    /// a [`ReadStarted::Unmapped`] page.
    pub fn zero_page(&self) -> PageImage {
        self.flash.zero_page()
    }

    /// Inserts into the page cache, recycling whatever the insert evicts.
    fn cache_insert(&mut self, lpn: u64, data: PageImage) {
        if let Some((_, old)) = self.cache.insert(lpn, data) {
            self.flash.recycle_page_buf(old);
        }
    }

    /// The FTL's configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// FTL statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Hit/miss statistics of the SSD-DRAM page cache.
    pub fn cache_stats(&self) -> HitStats {
        self.cache.stats()
    }

    /// Page images resident in the SSD-DRAM page cache.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }

    /// Resets **every** statistic this layer and the layers below
    /// accumulate: FTL counters, firmware-core and engine busy time,
    /// page-cache hit stats, flash-array stats and fault-injection
    /// counters. Device state (mappings, caches, queued firmware tasks,
    /// RNG streams) is untouched.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.fw.reset();
        self.engines.iter_mut().for_each(Server::reset);
        self.cache.reset_stats();
        self.flash.reset_stats();
    }

    /// Installs the sim-time span tracer for this FTL: each firmware-core
    /// and engine service window (`fw:exec`, `fw:engine` with its `ch`)
    /// and each flash channel hold (`flash:xfer` with its `ch`) lands on
    /// the [`track::TID_FW`], [`track::TID_ENGINE_BASE`]` + i` and
    /// [`track::TID_FLASH`] rows of the tracer's pid, beside the
    /// `flash:read` residence of host reads. The windows are the ones the
    /// busy getters count, so at idle Σ spans == busy per member.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Empties the SSD-DRAM page cache (cold-start experiments). In-flight
    /// write data is retained — dropping it would lose correctness.
    pub fn drop_caches(&mut self) {
        self.invalidate_range(Lpn(0), u64::MAX);
    }

    /// Evicts every cached page in `[start, start + pages)` — required
    /// when a preloaded region is re-bound to new contents (placement
    /// repacking swaps a table slot's image), so stale page images can
    /// never serve the new binding.
    pub fn invalidate_range(&mut self, start: Lpn, pages: u64) {
        let range = start.0..start.0.saturating_add(pages);
        let stale: Vec<u64> = self
            .cache
            .iter()
            .map(|(&k, _)| k)
            .filter(|k| range.contains(k))
            .collect();
        for lpn in stale {
            if let Some(image) = self.cache.remove(&lpn) {
                self.flash.recycle_page_buf(image);
            }
        }
    }

    /// The wear-aware block allocator (read-only view for diagnostics).
    pub fn allocator(&self) -> &BlockAllocator {
        &self.alloc
    }

    /// The underlying flash array (read-only view for diagnostics).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Installs (or clears) a fault-injection plan on the underlying
    /// flash array. The plan also governs firmware-charge stalls and
    /// brownout inflation (see [`GreedyFtl::charge`]).
    pub fn set_fault_plan(&mut self, plan: Option<recssd_flash::FaultPlan>) {
        self.flash.set_fault_plan(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&recssd_flash::FaultPlan> {
        self.flash.fault_plan()
    }

    /// Mutable access to the installed fault plan.
    pub fn fault_plan_mut(&mut self) -> Option<&mut recssd_flash::FaultPlan> {
        self.flash.fault_plan_mut()
    }

    /// Total busy time of the firmware core.
    pub fn firmware_busy(&self) -> SimDuration {
        self.fw.busy()
    }

    /// The engine-pool configuration, when a pool is present.
    pub fn engine_config(&self) -> Option<&EnginePoolConfig> {
        self.config.engines.as_ref()
    }

    /// Number of per-channel engines (0 = single-core firmware).
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Total busy time of engine `i` of the pool.
    ///
    /// # Panics
    ///
    /// Panics if no pool is configured or `i` is out of range.
    pub fn engine_busy(&self, i: usize) -> SimDuration {
        self.engines[i].busy()
    }

    /// Total busy time summed across the engine pool (zero without one).
    pub fn engines_busy_total(&self) -> SimDuration {
        self.engines.iter().map(Server::busy).sum()
    }

    /// The flash channel physically holding `lpn`, for channel→engine
    /// affinity. Unmapped pages fall back to the preload stripe-order
    /// lane, so never-written pages still route deterministically.
    pub fn channel_of(&self, lpn: Lpn) -> u32 {
        let g = self.config.flash.geometry;
        match self.map.lookup(lpn, &g) {
            Some(ppa) => ppa.channel,
            None => g.stripe_channel(lpn.0),
        }
    }

    /// `true` when nothing is in flight anywhere in the FTL.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.flash.idle()
            && self.fw.idle()
            && self.engines.iter().all(Server::idle)
            && self.gc_jobs.is_empty()
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.config.flash.geometry.page_bytes
    }

    fn die_linear(&self, ppa: Ppa) -> usize {
        (ppa.channel * self.config.flash.geometry.dies_per_channel + ppa.die) as usize
    }

    /// Installs a preloaded, identity-mapped region backed by `oracle`
    /// (used to bulk-load embedding tables; mirrors §5's preloading of
    /// tables onto the OpenSSD). The covered physical blocks are reserved:
    /// never allocated for writes, never garbage collected. Nothing here
    /// is kept per block: the flash array keeps the page range and derives
    /// a covered block's write pointer from it, and the allocator's free
    /// ranges already exclude a reserved block, so a block that two
    /// adjacent preloads share, or a region preloaded again, is reserved
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the logical capacity, or if it covers
    /// a block that holds written data (open, full, or being collected).
    pub fn preload(&mut self, start: Lpn, pages: u64, oracle: Arc<dyn PageOracle>) {
        let end = start.0 + pages;
        assert!(
            end <= self.config.logical_pages,
            "preload range exceeds logical capacity"
        );
        let g = self.config.flash.geometry;
        let range = start.0..end;
        self.flash.preload(range.clone(), oracle);
        self.map.add_identity_range(range.clone());
        for last in g.covered_blocks(range) {
            let collecting = self.gc_jobs.get(&self.die_linear(last));
            assert!(
                collecting.is_none_or(|job| job.victim != last.block),
                "preload over block {last} under garbage collection"
            );
            self.alloc.reserve(last.channel, last.die, last.block);
        }
    }

    /// Starts a logical page read.
    ///
    /// Returns synchronously when the page is resident in SSD DRAM (write
    /// buffer or page cache) or unmapped; otherwise a flash read is issued
    /// and a [`FtlOutcome::ReadDone`] follows.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] if `lpn` exceeds the logical capacity.
    pub fn read_page(
        &mut self,
        now: SimTime,
        lpn: Lpn,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) -> Result<ReadStarted, FtlError> {
        self.read_page_for(now, lpn, FwTag(0), 0, sched)
    }

    /// [`GreedyFtl::read_page`] on behalf of `tag`, which the read's
    /// completion returns, and of the operator whose trace id is `cause`:
    /// a flash read it issues traces its windows with it.
    ///
    /// # Errors
    ///
    /// As [`GreedyFtl::read_page`].
    pub fn read_page_for(
        &mut self,
        now: SimTime,
        lpn: Lpn,
        tag: FwTag,
        cause: u64,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) -> Result<ReadStarted, FtlError> {
        if lpn.0 >= self.config.logical_pages {
            return Err(FtlError::LpnOutOfRange(lpn));
        }
        self.stats.host_reads.inc();
        if let Some(data) = self.write_buffer.get(&lpn.0) {
            self.stats.write_buffer_hits.inc();
            return Ok(ReadStarted::CacheHit(data.clone()));
        }
        if let Some(data) = self.cache.get(&lpn.0) {
            return Ok(ReadStarted::CacheHit(data.clone()));
        }
        let g = self.config.flash.geometry;
        let Some(ppa) = self.map.lookup(lpn, &g) else {
            self.stats.unmapped_reads.inc();
            return Ok(ReadStarted::Unmapped);
        };
        let op = self
            .flash
            .submit(now, FlashOp::Read { ppa }, &mut |d, fe| {
                sched(d, FtlEvent::Flash(fe))
            })?;
        let read = Pending::HostRead {
            tag,
            lpn,
            ppa,
            cause,
        };
        self.pending.insert(op, read);
        Ok(ReadStarted::Pending(tag))
    }

    /// Runs `read` over the content `lpn` holds now, found in
    /// [`GreedyFtl::read_page`]'s order — write buffer, page cache, mapped
    /// flash content, else the zero page — but untimed: no counter, span,
    /// cache recency or flash operation, so simulated time cannot tell it
    /// happened. A flash image goes back to the pool before this returns.
    /// This is how a layer that remembers only *which* rows it holds (the
    /// SSD-side embedding cache) gets their bytes.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` exceeds the logical capacity.
    pub fn with_current_page<R>(&mut self, lpn: Lpn, read: impl FnOnce(&PageImage) -> R) -> R {
        assert!(lpn.0 < self.config.logical_pages, "{lpn} out of range");
        if let Some(data) = self.write_buffer.get(&lpn.0) {
            return read(data);
        }
        if let Some(data) = self.cache.peek(&lpn.0) {
            return read(data);
        }
        let g = self.config.flash.geometry;
        let Some(ppa) = self.map.lookup(lpn, &g) else {
            return read(&self.flash.zero_page());
        };
        let image = self.flash.page_image(ppa);
        let out = read(&image);
        self.flash.recycle_page_buf(image);
        out
    }

    /// Starts a logical page write (up to one page of data; the remainder
    /// of the page reads as zeros). Completion is signalled by
    /// [`FtlOutcome::WriteDone`] carrying `tag`; reads of the page are
    /// served from the write buffer in the interim.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`], [`FtlError::DataTooLarge`] or
    /// [`FtlError::DeviceFull`].
    pub fn write_page(
        &mut self,
        now: SimTime,
        lpn: Lpn,
        data: &[u8],
        tag: FwTag,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) -> Result<(), FtlError> {
        let g = self.config.flash.geometry;
        if lpn.0 >= self.config.logical_pages {
            return Err(FtlError::LpnOutOfRange(lpn));
        }
        if data.len() > g.page_bytes {
            return Err(FtlError::DataTooLarge {
                len: data.len(),
                page_bytes: g.page_bytes,
            });
        }
        self.stats.host_writes.inc();
        let ppa = self.alloc.alloc_page().ok_or(FtlError::DeviceFull)?;
        self.map.map(lpn, ppa, &g);
        // One image of the page stays resident until the program completes:
        // the write buffer, the page cache and the program share it.
        let image = self.flash.page_image_from(data);
        if let Some(old) = self.write_buffer.insert(lpn.0, image.clone()) {
            self.flash.recycle_page_buf(old);
        }
        self.cache_insert(lpn.0, image.clone());
        let op = self
            .flash
            .submit(now, FlashOp::Program { ppa, data: image }, &mut |d, fe| {
                sched(d, FtlEvent::Flash(fe))
            })
            .expect("allocator and flash write pointers must agree");
        self.pending.insert(op, Pending::HostWrite { tag, lpn });
        let die = self.die_linear(ppa);
        self.maybe_start_gc(now, die, sched);
        Ok(())
    }

    /// Charges a task onto the serial firmware core (`on` is `None`) or
    /// onto engine `e % pool size` of the per-channel pool (`Some(e)`),
    /// its duration scaled to the pool's service rate. When the task
    /// finishes, [`FtlOutcome::FwTaskDone`] carries `tag` back to the
    /// caller. Tasks run FIFO per server — the core's serialisation models
    /// the embedded ARM core that both NVMe command handling and NDP
    /// translation share, while engines run concurrently with each other
    /// and with the core, which is the whole point of the multi-engine
    /// model. Fault-plan brownout inflation and stall draws apply alike.
    /// `cause` is the trace id of the host operator the task serves (zero
    /// for none); its service window carries it.
    ///
    /// # Panics
    ///
    /// Panics if `on` names an engine and no engine pool is configured.
    pub fn charge(
        &mut self,
        now: SimTime,
        on: Option<usize>,
        mut duration: SimDuration,
        tag: FwTag,
        cause: u64,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) {
        // Fault injection: a brownout inflates the charge, then one stall
        // draw (from the shared stream, so never reorder) multiplies it —
        // a wedged code path holding the core or engine.
        if let Some(plan) = self.flash.fault_plan_mut() {
            duration = plan.inflate(now, duration);
            if let Some(m) = plan.draw_stall() {
                duration = duration * m as u64;
            }
        }
        let task = (tag, cause);
        let (server, duration, done) = match on {
            None => (&mut self.fw, duration, FtlEvent::FwDone),
            Some(e) => {
                let pool = self.config.engines.expect("engine pool configured");
                let idx = e % self.engines.len();
                let done = FtlEvent::EngineDone(idx as u32);
                (&mut self.engines[idx], pool.scale(duration), done)
            }
        };
        if let Some(d) = server.start(now, duration, task) {
            self.serve(now, d, done, task, sched);
        }
    }

    /// The one start site of the firmware core and the engines: `tag`
    /// starts service at `now` on the server whose completion event is
    /// `done`. Schedules that event and traces the service window — the
    /// window the server's busy counter just charged — with its cause.
    fn serve(
        &self,
        now: SimTime,
        d: SimDuration,
        done: FtlEvent,
        (tag, cause): (FwTag, u64),
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) {
        if self.tracer.enabled() {
            let (tid, name, key, val) = match done {
                FtlEvent::EngineDone(i) => {
                    (track::TID_ENGINE_BASE + i, "fw:engine", "ch", i as u64)
                }
                _ => (track::TID_FW, "fw:exec", "tag", tag.0),
            };
            self.tracer
                .with_tid(tid)
                .window(name, now, now + d, SpanId::NONE, cause, key, val);
        }
        sched(d, done);
    }

    /// Processes one FTL event, appending zero or more outcomes to `out`
    /// (an out-parameter so the caller's scratch buffer is reused across
    /// events instead of allocating a fresh `Vec` per event).
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: FtlEvent,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
        out: &mut Vec<FtlOutcome>,
    ) {
        match ev {
            FtlEvent::FwDone | FtlEvent::EngineDone(_) => {
                let server = match ev {
                    FtlEvent::EngineDone(i) => &mut self.engines[i as usize],
                    _ => &mut self.fw,
                };
                let ((tag, _), next) = server.finish(now);
                if let Some(d) = next {
                    let started = server.current().expect("a queued task started");
                    self.serve(now, d, ev, started, sched);
                }
                out.push(FtlOutcome::FwTaskDone { tag });
            }
            FtlEvent::Flash(fev) => {
                let completion = self
                    .flash
                    .handle(now, fev, &mut |d, fe| sched(d, FtlEvent::Flash(fe)));
                if let Some(c) = completion {
                    self.on_flash_completion(now, c, sched, out);
                }
            }
        }
    }

    fn on_flash_completion(
        &mut self,
        now: SimTime,
        c: FlashCompletion,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
        out: &mut Vec<FtlOutcome>,
    ) {
        let g = self.config.flash.geometry;
        let pending = self.pending.remove(&c.op).expect("untracked flash op");
        if self.tracer.enabled() {
            let read = match pending {
                Pending::HostRead { cause, .. } => Some(cause),
                _ => None,
            };
            self.trace_flash(now, &c, read);
        }
        match pending {
            Pending::HostRead { tag, lpn, ppa, .. } => {
                if c.failed {
                    // Uncorrectable media error: the bytes are untrusted,
                    // so nothing is cached and the image goes straight
                    // back to the flash pool. The owner gets a typed
                    // failure instead of data.
                    self.flash
                        .recycle_page_buf(c.data.expect("read completion carries data"));
                    out.push(FtlOutcome::ReadFailed { tag, lpn });
                    return;
                }
                let data = c.data.expect("read completion carries data");
                // Cache only if the mapping still points at what we read —
                // a concurrent overwrite must not be shadowed by stale data.
                if self.map.lookup(lpn, &g) == Some(ppa) && !self.write_buffer.contains_key(&lpn.0)
                {
                    self.cache_insert(lpn.0, data.clone());
                }
                out.push(FtlOutcome::ReadDone { tag, lpn, data });
            }
            Pending::HostWrite { tag, lpn } => {
                if let Some(image) = self.write_buffer.remove(&lpn.0) {
                    self.flash.recycle_page_buf(image);
                }
                out.push(FtlOutcome::WriteDone { tag, lpn });
            }
            Pending::GcRead { die, lpn, old } => {
                self.stats.gc_relocated_pages.inc();
                // GC relocation ignores injected read failures: real
                // firmware retries relocation reads offline until they
                // converge, so only host-facing reads surface errors.
                let data = c.data.expect("GC read carries data");
                let new = self
                    .alloc
                    .alloc_page()
                    .expect("GC ran out of space: device overfilled beyond over-provisioning");
                let op = self
                    .flash
                    .submit(now, FlashOp::Program { ppa: new, data }, &mut |d, fe| {
                        sched(d, FtlEvent::Flash(fe))
                    })
                    .expect("GC program must be well-formed");
                self.pending
                    .insert(op, Pending::GcWrite { die, lpn, old, new });
                let job = self.gc_jobs.get_mut(&die).expect("GC read without job");
                job.reads_left -= 1;
                job.writes_left += 1;
            }
            Pending::GcWrite { die, lpn, old, new } => {
                self.map.remap_if_current(lpn, old, new, &g);
                let job = self.gc_jobs.get_mut(&die).expect("GC write without job");
                job.writes_left -= 1;
                if job.reads_left == 0 && job.writes_left == 0 {
                    self.issue_gc_erase(now, die, sched);
                }
            }
            Pending::GcErase {
                die,
                channel,
                die_in_ch,
                block,
            } => {
                self.map.forget_block(channel, die_in_ch, block, &g);
                self.alloc.on_erase(channel, die_in_ch, block);
                self.stats.gc_erased_blocks.inc();
                self.gc_jobs.remove(&die);
                // Keep collecting if the die is still under pressure.
                self.maybe_start_gc(now, die, sched);
            }
        }
    }

    /// Traces a flash completion: a host read's residence, submit →
    /// complete (`flash:read`, sense + ECC retries + die/bus queueing),
    /// and for every operation that held a channel — host and GC reads,
    /// programs — the hold window (`flash:xfer`, its channel as `ch`),
    /// which is exactly what that channel's busy counter charged. A host
    /// read's windows carry the cause it was issued for (`read`); the
    /// others carry none.
    fn trace_flash(&self, now: SimTime, c: &FlashCompletion, read: Option<u64>) {
        let tr = self.tracer.with_tid(track::TID_FLASH);
        let (parent, cause) = match read {
            Some(cause) => {
                let (key, val) = if c.failed {
                    ("failed", 1)
                } else {
                    ("retried", c.retried as u64)
                };
                let at = c.submitted_at;
                let read = tr.window("flash:read", at, now, SpanId::NONE, cause, key, val);
                (read, cause)
            }
            None => (SpanId::NONE, 0),
        };
        if let Some((start, end)) = c.channel_window {
            let ch = c.ppa.channel as u64;
            tr.window("flash:xfer", start, end, parent, cause, "ch", ch);
        }
    }

    fn maybe_start_gc(
        &mut self,
        now: SimTime,
        die: usize,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) {
        if self.gc_jobs.contains_key(&die) {
            return;
        }
        if self.alloc.free_blocks_in_die(die) > self.config.gc_low_water {
            return;
        }
        let g = self.config.flash.geometry;
        let channel = die as u32 / g.dies_per_channel;
        let die_in_ch = die as u32 % g.dies_per_channel;
        // Greedy victim: the used block with the fewest valid pages.
        let victim = self
            .alloc
            .used_blocks_in_die(die)
            .iter()
            .copied()
            .min_by_key(|&b| {
                self.map
                    .valid_in_block(g.block_index(channel, die_in_ch, b))
            });
        let Some(victim) = victim else {
            return; // nothing reclaimable yet
        };
        // A fully valid victim frees nothing: relocating it consumes as many
        // pages as the erase reclaims. Wait for garbage to accumulate.
        if self
            .map
            .valid_in_block(g.block_index(channel, die_in_ch, victim))
            >= g.pages_per_block
        {
            return;
        }
        self.alloc.take_used(die, victim);
        let live = self.map.live_in_block(channel, die_in_ch, victim, &g);
        self.gc_jobs.insert(
            die,
            GcJob {
                victim,
                reads_left: live.len(),
                writes_left: 0,
            },
        );
        if live.is_empty() {
            self.issue_gc_erase(now, die, sched);
            return;
        }
        for (lpn, ppa) in live {
            let op = self
                .flash
                .submit(now, FlashOp::Read { ppa }, &mut |d, fe| {
                    sched(d, FtlEvent::Flash(fe))
                })
                .expect("GC read must be well-formed");
            self.pending
                .insert(op, Pending::GcRead { die, lpn, old: ppa });
        }
    }

    fn issue_gc_erase(
        &mut self,
        now: SimTime,
        die: usize,
        sched: &mut dyn FnMut(SimDuration, FtlEvent),
    ) {
        let g = self.config.flash.geometry;
        let channel = die as u32 / g.dies_per_channel;
        let die_in_ch = die as u32 % g.dies_per_channel;
        let block = self.gc_jobs[&die].victim;
        let op = self
            .flash
            .submit(
                now,
                FlashOp::Erase {
                    ppa: Ppa {
                        channel,
                        die: die_in_ch,
                        block,
                        page: 0,
                    },
                },
                &mut |d, fe| sched(d, FtlEvent::Flash(fe)),
            )
            .expect("GC erase must be well-formed");
        self.pending.insert(
            op,
            Pending::GcErase {
                die,
                channel,
                die_in_ch,
                block,
            },
        );
    }
}
