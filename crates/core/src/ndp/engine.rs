//! The in-FTL SLS engine: request buffer, config processing, translation,
//! result scratchpad and the SSD-side embedding cache.
//!
//! This is the reproduction of §4.1's design (Fig. 7). The lifetime of one
//! SLS request:
//!
//! 1a. A write-like NVMe command with the spare bit arrives; an entry is
//!     allocated in the pending-SLS-request buffer and the configuration
//!     payload is DMA'd from the host.
//! 2.  *Config processing* (a firmware task): the sorted pair list is
//!     scanned, inputs are separated by flash page, and the SSD-side
//!     embedding cache absorbs whatever vectors it holds (step 2a).
//! 3.  Page reads are fed through the FTL's page scheduler (3a); pages
//!     already in the FTL page cache are processed directly (3b).
//! 4/5. Each returned page triggers a *Translation* firmware task that
//!     extracts the needed vectors and accumulates them into the entry's
//!     result scratchpad.
//! 1b/6. A read-like command (matched through the request id embedded in
//!     its SLBA) collects the result pages; once all pages are processed
//!     the results are DMA'd back and the entry is deallocated.
//!
//! # Steady-state allocation discipline
//!
//! The gather/reduce loop here is the simulator's hottest path, so it is
//! structured to perform **zero heap allocations per gathered vector**
//! once warm:
//!
//! * results live in a flat [`SlsOutput`] scratchpad and vectors are
//!   folded in with the fused `decode_accumulate` (no per-vector `Vec`);
//! * the per-page work lists are two flat `Vec`s (`work_items` +
//!   `page_work` index) built by one scan of the sorted pair list with
//!   the page grouping the host's baseline planner uses —
//!   sortedness means equal pages are adjacent, so grouping needs no map;
//! * every buffer an entry owns — scratchpad, work lists, the decoded
//!   pair list, per-engine page counts — is one `EntryBufs` field, which
//!   returns whole to a free-list pool when the request completes, so
//!   steady-state requests allocate nothing for them;
//! * an entry's breakdown accumulates in its own [`SlsRequestReport`] and
//!   is folded into fixed-size running sums at completion (no
//!   per-request record is kept);
//! * every translation — on the firmware core or on any engine of a
//!   per-channel pool — folds its rows straight into the scratchpad;
//!   the pool's merge is a timed task (`merge_time` over the engines
//!   that translated a page) with no data work behind it. No fold
//!   order can move a bit: every served value lies on the exact
//!   summation grid (the `recssd-embedding` crate docs);
//! * the SSD-side embedding cache is a tag array and holds no vectors: a
//!   fill writes a slot's `(table base, row)` tag, and a hit decodes its
//!   row from the page's current content, which the FTL reads untimed
//!   into a pooled page image that goes straight back to the pool.

use recssd_embedding::Quantization;
use recssd_ftl::{FtlOutcome, FwTag, Lpn, ReadStarted};
use recssd_nvme::{CmdData, NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use recssd_sim::rng::mix64;
use recssd_sim::stats::{Counter, HitStats};
use recssd_sim::{IdMap, PageImage, SimDuration, SimTime};
use recssd_ssd::{DeviceCtx, MergePlacement, NdpEngine, SsdEvent, EXT_TAG_BIT};

use crate::pages::PageRun;
use crate::{NdpConfig, SlsConfig, SlsOutput};

/// Logical blocks one NVMe read can return: its block count is a 16-bit,
/// zero-based field.
const MAX_RESULT_BLOCKS: usize = 1 << 16;

/// Per-request latency breakdown, the instrumentation behind Fig. 8.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlsRequestReport {
    /// Command arrival → configuration DMA complete ("Config Write").
    pub config_write: SimDuration,
    /// Duration of the config-processing firmware task ("Config Process").
    pub config_process: SimDuration,
    /// Sum of translation firmware task durations ("Translation").
    pub translation: SimDuration,
    /// Duration of the engine pool's merge task (zero without a
    /// per-channel engine pool).
    pub merge: SimDuration,
    /// Time the FTL spent managing/waiting on flash beyond translation
    /// ("Flash Read").
    pub flash_read: SimDuration,
    /// Arrival → results ready.
    pub total: SimDuration,
    /// Flash pages this request touched.
    pub pages: usize,
    /// Vectors served by the SSD-side embedding cache.
    pub cache_hits: u64,
    /// Total vectors gathered.
    pub lookups: u64,
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default)]
pub struct NdpStats {
    /// SLS requests completed.
    pub sls_requests: Counter,
    /// Page reads issued to the FTL (cache hits included).
    pub pages_requested: Counter,
    /// Hit/miss accounting of the SSD-side embedding cache (per vector).
    pub embed_cache: HitStats,
    /// Component-wise running sum of per-request breakdowns. A
    /// fixed-size accumulator — rather than a per-request vector —
    /// keeps request completion allocation-free in steady state;
    /// divide by `sls_requests` for the mean.
    report_sum: SlsRequestReport,
    /// The most recently completed request's breakdown.
    last_report: SlsRequestReport,
}

impl NdpStats {
    /// Clears accumulated reports and counters (between experiment runs).
    pub fn reset(&mut self) {
        *self = NdpStats::default();
    }

    /// The most recently completed request's latency breakdown
    /// (all-zero until the first request completes).
    pub fn last_report(&self) -> SlsRequestReport {
        self.last_report
    }

    /// Folds one completed request's breakdown into the running sum.
    fn record_report(&mut self, r: &SlsRequestReport) {
        self.last_report = *r;
        let acc = &mut self.report_sum;
        acc.config_write += r.config_write;
        acc.config_process += r.config_process;
        acc.translation += r.translation;
        acc.merge += r.merge;
        acc.flash_read += r.flash_read;
        acc.total += r.total;
        acc.pages += r.pages;
        acc.cache_hits += r.cache_hits;
        acc.lookups += r.lookups;
    }

    /// Mean breakdown over all completed requests.
    ///
    /// # Panics
    ///
    /// Panics if no requests completed.
    pub fn mean_report(&self) -> SlsRequestReport {
        let n = self.sls_requests.get();
        assert!(n > 0, "no SLS requests completed");
        let acc = &self.report_sum;
        SlsRequestReport {
            config_write: acc.config_write / n,
            config_process: acc.config_process / n,
            translation: acc.translation / n,
            merge: acc.merge / n,
            flash_read: acc.flash_read / n,
            total: acc.total / n,
            pages: acc.pages / n as usize,
            cache_hits: acc.cache_hits / n,
            lookups: acc.lookups / n,
        }
    }
}

/// The direct-mapped SSD-side embedding cache (§4.2): which
/// `(table base, row)` each slot of the simulated DRAM holds. The tag
/// array decides hits, conflicts and evictions; a hit's vector is decoded
/// from its page's current content, so the cache owns no vector bytes and
/// can never serve a stale one. A slot conflict is verified against the
/// full key, so it is a miss, never a wrong row.
#[derive(Debug)]
struct EmbedCache {
    /// `(table base, row)` tag per slot, 16 bytes; an empty slot has the
    /// base [`EMPTY_SLOT`].
    tags: Vec<(u64, u64)>,
}

/// The table base of an empty [`EmbedCache`] slot. No table starts there:
/// bases are multiples of `table_align`, which
/// [`RecSsdConfig::validate`](crate::RecSsdConfig::validate) bounds by
/// 2^63, and lie below the device's logical capacity.
const EMPTY_SLOT: u64 = u64::MAX;

impl EmbedCache {
    fn new(slots: usize) -> Self {
        EmbedCache {
            tags: vec![(EMPTY_SLOT, 0); slots],
        }
    }

    #[inline]
    fn key(base: u64, row: u64) -> u64 {
        mix64(base).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ row
    }

    #[inline]
    fn slot(&self, base: u64, row: u64) -> usize {
        (Self::key(base, row) % self.tags.len() as u64) as usize
    }

    /// `true` (and a hit recorded) if the row's slot holds it; a miss is
    /// recorded otherwise. A disabled cache records nothing.
    fn hit(&self, base: u64, row: u64, stats: &mut HitStats) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        let hit = self.tags[self.slot(base, row)] == (base, row);
        if hit {
            stats.hit();
        } else {
            stats.miss();
        }
        hit
    }

    fn insert(&mut self, base: u64, row: u64) {
        debug_assert_ne!(base, EMPTY_SLOT, "a table base at the empty-slot mark");
        if self.tags.is_empty() {
            return;
        }
        let slot = self.slot(base, row);
        self.tags[slot] = (base, row);
    }

    /// Empties every slot holding a vector of the table at `base`.
    fn invalidate_table(&mut self, base: u64) {
        for tag in &mut self.tags {
            if tag.0 == base {
                *tag = (EMPTY_SLOT, 0);
            }
        }
    }
}

#[derive(Debug)]
enum FwJob {
    ConfigProcess {
        request: u64,
    },
    Translate {
        request: u64,
        /// Index into the entry's `page_work`.
        widx: usize,
        data: PageImage,
        duration: SimDuration,
    },
    /// The engine pool's merge of a request's results (multi-engine path
    /// only): a timed task, the rows are already in the scratchpad.
    Merge {
        request: u64,
    },
}

/// An entry's pooled buffers, recycled across requests so steady-state
/// request processing allocates nothing for them.
#[derive(Debug, Default)]
struct EntryBufs {
    /// The result scratchpad.
    results: SlsOutput,
    /// `(byte offset, result slot)` items, grouped by page in `page_work`
    /// order (pages ascending — the §4.3 sorted-pair contract makes the
    /// grouping a single linear scan).
    work_items: Vec<(usize, u32)>,
    /// One record per distinct page, ascending page order.
    page_work: Vec<PageRun>,
    /// The pair list [`SlsConfig::decode_pooled`] parses into; it returns
    /// here once the work lists are built.
    pairs: Vec<(u64, u32)>,
    /// Pages translated per engine (sizes the merge charge).
    engine_pages: Vec<u32>,
}

#[derive(Debug)]
struct SlsEntry {
    qid: u16,
    write_cid: u16,
    /// The config write's cause: every charge and page read of the
    /// request carries it.
    cause: u64,
    table_base: u64,
    raw_config: Option<Vec<u8>>,
    /// The decoded config once processed; its pair list has gone back to
    /// `bufs.pairs`.
    cfg: Option<SlsConfig>,
    bufs: EntryBufs,
    pages_pending: usize,
    /// A merge task must still run (and has not been charged yet).
    needs_merge: bool,
    results_ready: bool,
    /// An injected uncorrectable flash read poisoned this request; it will
    /// complete with [`NvmeStatus::MediaError`] instead of result data.
    failed: bool,
    read_cmd: Option<(u16, u16, u32)>,
    // Instrumentation (Fig. 8 categories).
    t_arrive: SimTime,
    t_config_written: SimTime,
    t_processed: SimTime,
    t_last_page: SimTime,
    /// Instant the merged results became ready (equals `t_last_page` on
    /// the single-core path; after the merge task otherwise).
    t_ready: SimTime,
    /// The request's breakdown: the task durations and vector counts
    /// accumulate here as they happen, the spans are filled at `finish`.
    report: SlsRequestReport,
}

/// The RecSSD firmware engine. Install into a device with
/// [`recssd_ssd::SsdDevice::with_engine`]; drive it by submitting
/// [`NvmeCommand::ndp_write`]/[`NvmeCommand::ndp_read`] pairs (the
/// [`crate::System`] host runtime does this for you).
#[derive(Debug)]
pub struct NdpSlsEngine {
    cfg: NdpConfig,
    /// Pending SLS requests by the request id the host encodes in the
    /// SLBA (host-chosen, so any value below the table alignment). A
    /// request's page reads and DMAs carry `EXT_TAG_BIT | request` as their
    /// tag: a read's completion finds its page by its logical page, a DMA's
    /// by whether the entry still holds its config payload.
    entries: IdMap<u64, SlsEntry>,
    /// Firmware tasks in flight by their tag, each holding what its
    /// completion needs (a translation's page image).
    fw_jobs: IdMap<u64, FwJob>,
    next_tag: u64,
    cache: EmbedCache,
    /// Free-list of recycled entry buffers.
    buf_pool: Vec<EntryBufs>,
    stats: NdpStats,
}

impl NdpSlsEngine {
    /// Creates an engine with the given parameters.
    pub fn new(cfg: NdpConfig) -> Self {
        NdpSlsEngine {
            cache: EmbedCache::new(cfg.embed_cache_slots),
            cfg,
            entries: IdMap::new(),
            fw_jobs: IdMap::new(),
            next_tag: 0,
            buf_pool: Vec::new(),
            stats: NdpStats::default(),
        }
    }

    /// Engine statistics (breakdowns, cache hit rates).
    pub fn stats(&self) -> &NdpStats {
        &self.stats
    }

    /// SLS requests whose config arrived and whose results were not yet
    /// read back.
    pub fn pending_requests(&self) -> usize {
        self.entries.len()
    }

    /// Slots of the pending-request table (an [`IdMap`] keyed by the
    /// host's request ids): at most 8 × (the most requests ever pending + 1).
    pub fn request_table_slots(&self) -> usize {
        self.entries.slot_count()
    }

    /// Forgets every SSD-side cached row of the table whose slot starts
    /// at logical page `table_base` — required when the slot is re-bound
    /// to a new image: the cache held the old image's rows, so none of
    /// the new image's may count as a hit.
    pub fn invalidate_table(&mut self, table_base: u64) {
        self.cache.invalidate_table(table_base);
    }

    /// Charges `job` onto engine `e` of the pool (`Some(e)`) or onto the
    /// firmware core (`None`), for the request whose config write `cause`
    /// issued, under a fresh tag that its completion returns.
    fn charge(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        on: Option<usize>,
        dur: SimDuration,
        job: FwJob,
        cause: u64,
    ) {
        let tag = self.next_tag | EXT_TAG_BIT;
        self.next_tag += 1;
        self.fw_jobs.insert(tag, job);
        let sched = &mut *ctx.sched;
        let sched = &mut |d, e| sched(d, SsdEvent::Ftl(e));
        ctx.ftl.charge(ctx.now, on, dur, FwTag(tag), cause, sched);
    }

    /// Starts a DMA of `bytes` for `request`.
    fn dma(ctx: &mut DeviceCtx<'_>, request: u64, bytes: usize) {
        let sched = &mut *ctx.sched;
        let tag = EXT_TAG_BIT | request;
        ctx.pcie
            .request(ctx.now, bytes, tag, &mut |d, e| sched(d, SsdEvent::Pcie(e)));
    }

    /// Returns an entry's buffers to the free-list pool.
    fn recycle(&mut self, entry: SlsEntry) {
        if self.buf_pool.len() < self.cfg.max_entries {
            self.buf_pool.push(entry.bufs);
        }
    }

    /// Step 2/3: configuration processed — build work lists, absorb cache
    /// hits, issue page reads, and complete the config-write command.
    fn process_config(&mut self, ctx: &mut DeviceCtx<'_>, request: u64) {
        let (page_bytes, logical_pages) = (ctx.ftl.page_bytes(), ctx.ftl.config().logical_pages);
        let entry = self.entries.get_mut(&request).expect("entry exists");
        let raw = entry.raw_config.take().expect("config payload present");
        let base = entry.table_base;
        // The payload is host-supplied: besides being well-formed it must
        // describe rows that fit a flash page, pages the device has and a
        // result block one read command can return (the scratchpad below is
        // sized from it). Pairs are sorted by row, so the last one reaches
        // furthest.
        let cfg = SlsConfig::decode_pooled(&raw, std::mem::take(&mut entry.bufs.pairs))
            .ok()
            .filter(|cfg| {
                let fits = (cfg.row_bytes().checked_mul(cfg.rows_per_page as usize))
                    .is_some_and(|bytes| bytes <= page_bytes);
                let returnable = (cfg.n_results as usize)
                    .checked_mul(cfg.dim as usize)
                    .and_then(|floats| floats.checked_mul(4))
                    .is_some_and(|bytes| bytes.div_ceil(page_bytes) <= MAX_RESULT_BLOCKS);
                let in_range = cfg.pairs.last().is_none_or(|&(row, _)| {
                    (base.checked_add(cfg.locate_row(row).0)).is_some_and(|lpn| lpn < logical_pages)
                });
                fits && returnable && in_range
            });
        // The config payload has been parsed; its buffer rejoins the
        // device's transfer pool so the host's next config-write reuses it.
        ctx.recycle_buffer(raw);
        let Some(mut cfg) = cfg else {
            // A result-read the host sent right behind the config is
            // refused with it.
            let entry = self.entries.remove(&request).expect("entry exists");
            let (qid, cid, read) = (entry.qid, entry.write_cid, entry.read_cmd);
            self.recycle(entry);
            ctx.complete(qid, NvmeCompletion::error(cid, NvmeStatus::InvalidField));
            if let Some((qid, cid, _)) = read {
                ctx.complete(qid, NvmeCompletion::error(cid, NvmeStatus::InvalidField));
            }
            return;
        };

        // Build the flat per-page work lists with one scan of the sorted
        // pair list (step 2), folding embedding-cache hits straight into
        // the result scratchpad (step 2a). A hit's row is decoded from its
        // page's current content, which the FTL reads untimed: the
        // simulated SSD DRAM holds the row, the simulator only its tag.
        let Self {
            cache,
            entries,
            stats,
            ..
        } = self;
        let entry = entries.get_mut(&request).expect("entry exists");
        let bufs = &mut entry.bufs;
        bufs.results.reset(cfg.n_results as usize, cfg.dim as usize);
        entry.report.lookups = cfg.pairs.len() as u64;
        bufs.work_items.clear();
        bufs.page_work.clear();
        let (row_bytes, quant) = (cfg.row_bytes(), cfg.quant);
        for &(row, slot) in &cfg.pairs {
            let (page, offset) = cfg.locate_row(row);
            if cache.hit(base, row, &mut stats.embed_cache) {
                entry.report.cache_hits += 1;
                let acc = bufs.results.row_mut(slot as usize);
                ctx.ftl.with_current_page(Lpn(base + page), |data| {
                    quant.decode_accumulate(&data.bytes_at(offset, row_bytes), acc)
                });
                continue;
            }
            PageRun::push(
                &mut bufs.page_work,
                &mut bufs.work_items,
                page,
                (offset, slot),
            );
        }
        // The pair list is consumed: its buffer goes back with the entry's.
        bufs.pairs = std::mem::take(&mut cfg.pairs);
        let n_pages = bufs.page_work.len();
        let cause = entry.cause;
        entry.pages_pending = n_pages;
        entry.t_processed = ctx.now;
        entry.t_last_page = ctx.now;
        let (qid, write_cid) = (entry.qid, entry.write_cid);

        // Multi-engine split: per-page translation will land on the
        // engine owning the page's channel, and a final merge task is
        // charged for the engines that saw a page.
        let engines = ctx.ftl.engine_count();
        if engines > 0 && n_pages > 0 {
            entry.bufs.engine_pages.clear();
            entry.bufs.engine_pages.resize(engines, 0);
            entry.needs_merge = true;
        }
        entry.cfg = Some(cfg);

        // Issue all page reads through the FTL's page scheduler (step 3a);
        // FTL page-cache hits are processed directly (step 3b).
        let tag = FwTag(EXT_TAG_BIT | request);
        for widx in 0..n_pages {
            let page = self.entries[&request].bufs.page_work[widx].page;
            self.stats.pages_requested.inc();
            let lpn = Lpn(base + page);
            let started = {
                let sched = &mut *ctx.sched;
                let sched = &mut |d, e| sched(d, SsdEvent::Ftl(e));
                (ctx.ftl.read_page_for(ctx.now, lpn, tag, cause, sched))
                    .expect("the last pair's page was checked against the logical space")
            };
            match started {
                // Its completion finds `widx` from the page it read.
                ReadStarted::Pending(_) => {}
                ReadStarted::CacheHit(data) => {
                    self.start_translation(ctx, request, widx, data);
                }
                ReadStarted::Unmapped => {
                    // Reads as zeros; translate the shared zero page so
                    // timing and accounting stay uniform.
                    let zeros = ctx.ftl.zero_page();
                    self.start_translation(ctx, request, widx, zeros);
                }
            }
        }
        // The write-like command completes once the entry is configured.
        ctx.complete(qid, NvmeCompletion::success(write_cid, None));
        self.maybe_finish(ctx, request);
    }

    /// Step 4: page data available — charge the translation task. With a
    /// per-channel engine pool the charge lands on the engine owning the
    /// page's flash channel (the transparent splitter); otherwise on the
    /// serial firmware core, exactly the single-core model.
    fn start_translation(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        request: u64,
        widx: usize,
        data: PageImage,
    ) {
        let entry = self.entries.get_mut(&request).expect("entry exists");
        let cfg = entry.cfg.as_ref().expect("configured");
        let (run, cause) = (entry.bufs.page_work[widx], entry.cause);
        let duration = self.cfg.translate_time(run.len as usize * cfg.row_bytes());
        let engines = ctx.ftl.engine_count();
        let engine = (engines > 0).then(|| {
            let lpn = Lpn(entry.table_base + run.page);
            let e = ctx.ftl.channel_of(lpn) as usize % engines;
            entry.bufs.engine_pages[e] += 1;
            e
        });
        let job = FwJob::Translate {
            request,
            widx,
            data,
            duration,
        };
        self.charge(ctx, engine, duration, job, cause);
    }

    /// Step 5: translation done — extract vectors, accumulate, and record
    /// each gathered row in the embedding cache. The fused
    /// `decode_accumulate` path allocates nothing, and a cache fill is a
    /// tag write.
    fn apply_translation(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        request: u64,
        widx: usize,
        data: &PageImage,
        duration: SimDuration,
    ) {
        let Self { cache, entries, .. } = self;
        let entry = entries.get_mut(&request).expect("entry exists");
        let cfg = entry.cfg.as_ref().expect("configured");
        let row_bytes = cfg.row_bytes();
        let rows_per_page = cfg.rows_per_page as u64;
        let quant: Quantization = cfg.quant;
        let w = entry.bufs.page_work[widx];
        let base = entry.table_base;
        let EntryBufs {
            results,
            work_items,
            ..
        } = &mut entry.bufs;
        for &(offset, slot) in &work_items[w.items()] {
            let bytes = data.bytes_at(offset, row_bytes);
            quant.decode_accumulate(&bytes, results.row_mut(slot as usize));
            cache.insert(base, w.page * rows_per_page + (offset / row_bytes) as u64);
        }
        entry.report.translation += duration;
        entry.pages_pending -= 1;
        entry.t_last_page = ctx.now;
        self.maybe_finish(ctx, request);
    }

    /// Step 6: if everything is accumulated and the host's read-like
    /// command has arrived, DMA the results back.
    fn maybe_finish(&mut self, ctx: &mut DeviceCtx<'_>, request: u64) {
        let block_bytes = ctx.ftl.page_bytes();
        let entry = self.entries.get_mut(&request).expect("entry exists");
        if entry.pages_pending > 0 || entry.cfg.is_none() {
            return;
        }
        if entry.failed {
            // A gather page hit an uncorrectable flash error: once the
            // host's result-read is matched, surface a typed media error
            // instead of DMAing a partial accumulation.
            let Some((qid, cid, _)) = entry.read_cmd else {
                return;
            };
            let entry = self.entries.remove(&request).expect("entry exists");
            self.recycle(entry);
            ctx.complete(qid, NvmeCompletion::error(cid, NvmeStatus::MediaError));
            return;
        }
        if entry.needs_merge {
            // Every page is translated: charge the pool's merge, a timed
            // task on a config-selected resource (fw core or a designated
            // engine) whose cost scales with the engines that translated a
            // page.
            entry.needs_merge = false;
            let cfg = entry.cfg.as_ref().expect("configured");
            let active = entry.bufs.engine_pages.iter().filter(|&&c| c > 0).count();
            let dur = self.cfg.merge_time(cfg.result_bytes() * active);
            entry.report.merge = dur;
            let on = match ctx.ftl.engine_config().expect("engine pool").merge {
                MergePlacement::FwCore => None,
                MergePlacement::Engine(i) => Some(i as usize),
            };
            let cause = entry.cause;
            self.charge(ctx, on, dur, FwJob::Merge { request }, cause);
            return;
        }
        if !entry.results_ready {
            entry.results_ready = true;
            entry.t_ready = ctx.now;
        }
        let Some((_qid, _cid, nlb)) = entry.read_cmd else {
            return;
        };
        let cfg = entry.cfg.as_ref().expect("configured");
        let needed = cfg.result_blocks(block_bytes);
        if nlb < needed {
            let (qid, cid, _) = entry.read_cmd.take().expect("checked");
            ctx.complete(qid, NvmeCompletion::error(cid, NvmeStatus::InvalidField));
            return;
        }
        let bytes = cfg.result_bytes().div_ceil(block_bytes).max(1) * block_bytes;
        Self::dma(ctx, request, bytes);
    }

    /// Finalises an entry after its result DMA: complete the read command,
    /// record the report, deallocate (returning its buffers to the pool).
    fn finish(&mut self, ctx: &mut DeviceCtx<'_>, request: u64) {
        let mut entry = self.entries.remove(&request).expect("entry exists");
        let (qid, cid, _) = entry.read_cmd.expect("read command pending");
        let block_bytes = ctx.ftl.page_bytes();
        let results = entry.bufs.results.as_slice();
        let mut data = ctx.take_buffer(SlsConfig::padded_result_len(results.len(), block_bytes));
        SlsConfig::encode_results_into(results, block_bytes, &mut data);
        ctx.complete(qid, NvmeCompletion::success(cid, Some(CmdData::Flat(data))));

        let flash_span = entry.t_last_page.saturating_since(entry.t_processed);
        let report = &mut entry.report;
        report.config_write = entry.t_config_written.saturating_since(entry.t_arrive);
        report.flash_read = flash_span.saturating_sub(report.translation);
        report.total = entry.t_ready.saturating_since(entry.t_arrive);
        report.pages = entry.bufs.page_work.len();
        self.stats.sls_requests.inc();
        self.stats.record_report(report);
        self.recycle(entry);
    }
}

impl NdpEngine for NdpSlsEngine {
    fn on_ndp_command(&mut self, ctx: &mut DeviceCtx<'_>, qid: u16, cmd: NvmeCommand) {
        let (table_base, request) = NvmeCommand::ndp_slba_decode(cmd.slba, self.cfg.table_align);
        match cmd.opcode {
            NvmeOpcode::Write => {
                // Step 1a: allocate an entry and DMA the configuration.
                let Some(payload) = cmd.payload else {
                    ctx.complete(
                        qid,
                        NvmeCompletion::error(cmd.cid, NvmeStatus::InvalidField),
                    );
                    return;
                };
                if self.entries.len() >= self.cfg.max_entries || self.entries.contains_key(&request)
                {
                    ctx.complete(
                        qid,
                        NvmeCompletion::error(cmd.cid, NvmeStatus::InternalError),
                    );
                    return;
                }
                let bytes = payload.len();
                self.entries.insert(
                    request,
                    SlsEntry {
                        qid,
                        write_cid: cmd.cid,
                        cause: cmd.cause,
                        table_base,
                        raw_config: Some(payload),
                        cfg: None,
                        bufs: self.buf_pool.pop().unwrap_or_default(),
                        pages_pending: 0,
                        needs_merge: false,
                        results_ready: false,
                        failed: false,
                        read_cmd: None,
                        t_arrive: ctx.now,
                        t_config_written: ctx.now,
                        t_processed: ctx.now,
                        t_last_page: ctx.now,
                        t_ready: ctx.now,
                        report: SlsRequestReport::default(),
                    },
                );
                Self::dma(ctx, request, bytes);
            }
            NvmeOpcode::Read => {
                // Step 1b: associate the result-read with its entry.
                let Some(entry) = self.entries.get_mut(&request) else {
                    ctx.complete(
                        qid,
                        NvmeCompletion::error(cmd.cid, NvmeStatus::InvalidField),
                    );
                    return;
                };
                if entry.table_base != table_base || entry.read_cmd.is_some() {
                    ctx.complete(
                        qid,
                        NvmeCompletion::error(cmd.cid, NvmeStatus::InvalidField),
                    );
                    return;
                }
                entry.read_cmd = Some((qid, cmd.cid, cmd.nlb));
                self.maybe_finish(ctx, request);
            }
        }
    }

    fn on_ftl_outcome(&mut self, ctx: &mut DeviceCtx<'_>, outcome: FtlOutcome) {
        let request = outcome.tag().0 & !EXT_TAG_BIT;
        match outcome {
            FtlOutcome::FwTaskDone { tag } => {
                match self.fw_jobs.remove(&tag.0).expect("engine firmware task") {
                    FwJob::ConfigProcess { request } => {
                        self.process_config(ctx, request);
                    }
                    FwJob::Translate {
                        request,
                        widx,
                        data,
                        duration,
                    } => {
                        self.apply_translation(ctx, request, widx, &data, duration);
                        // Done with this page image: offer it back (the
                        // page cache's eviction retires it instead while
                        // the cache still holds it).
                        ctx.ftl.recycle_page_image(data);
                    }
                    FwJob::Merge { request } => {
                        self.maybe_finish(ctx, request);
                    }
                }
            }
            FtlOutcome::ReadDone { lpn, data, .. } => {
                // The page's run in the ascending `page_work`.
                let entry = &self.entries[&request];
                let page = lpn.0 - entry.table_base;
                let widx = (entry.bufs.page_work)
                    .binary_search_by_key(&page, |run| run.page)
                    .expect("a page the request reads");
                self.start_translation(ctx, request, widx, data);
            }
            FtlOutcome::ReadFailed { .. } => {
                let entry = self.entries.get_mut(&request).expect("entry exists");
                entry.failed = true;
                entry.pages_pending -= 1;
                entry.t_last_page = ctx.now;
                self.maybe_finish(ctx, request);
            }
            FtlOutcome::WriteDone { .. } => unreachable!("the engine writes no pages"),
        }
    }

    fn on_pcie_done(&mut self, ctx: &mut DeviceCtx<'_>, tag: u64) {
        let request = tag & !EXT_TAG_BIT;
        let entry = self.entries.get_mut(&request).expect("entry exists");
        let Some(raw) = &entry.raw_config else {
            // The results went out.
            self.finish(ctx, request);
            return;
        };
        // Config landed on the device: charge config processing.
        entry.t_config_written = ctx.now;
        let pairs = SlsConfig::pair_count(raw.len());
        let dur = self.cfg.config_process_time(pairs);
        entry.report.config_process = dur;
        let cause = entry.cause;
        self.charge(ctx, None, dur, FwJob::ConfigProcess { request }, cause);
    }

    fn idle(&self) -> bool {
        self.entries.is_empty()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd_sim::rng::Xoshiro256;
    use recssd_sim::LruCache;

    /// One lookup of `(base, row)`: whether it hit, and what it recorded.
    fn probe(c: &EmbedCache, base: u64, row: u64) -> (bool, HitStats) {
        let mut stats = HitStats::default();
        (c.hit(base, row, &mut stats), stats)
    }

    #[test]
    fn embed_cache_fill_then_hit() {
        let mut c = EmbedCache::new(64);
        let (hit, stats) = probe(&c, 0, 1);
        assert!(!hit);
        assert_eq!((stats.hits(), stats.misses()), (0, 1));
        c.insert(0, 1);
        let (hit, stats) = probe(&c, 0, 1);
        assert!(hit);
        assert_eq!((stats.hits(), stats.misses()), (1, 0));
        assert!(!probe(&c, 1 << 21, 1).0, "the same row of another table");
    }

    #[test]
    fn embed_cache_slot_conflict_evicts_and_misses() {
        let mut c = EmbedCache::new(4);
        let collide = (1..)
            .find(|&row| c.slot(0, row) == c.slot(0, 0))
            .expect("a 4-slot cache has collisions");
        c.insert(0, 0);
        c.insert(0, collide);
        assert!(!probe(&c, 0, 0).0, "the conflict evicted row 0");
        assert!(probe(&c, 0, collide).0);
    }

    /// One slot: every other key is a miss against the full tag.
    #[test]
    fn embed_cache_wrong_tag_in_slot_is_a_miss() {
        let mut c = EmbedCache::new(1);
        c.insert(0, 7);
        let (hit, stats) = probe(&c, 0, 8);
        assert!(!hit);
        assert_eq!((stats.hits(), stats.misses()), (0, 1));
        let (hit, stats) = probe(&c, 0, 7);
        assert!(hit);
        assert_eq!((stats.hits(), stats.misses()), (1, 0));
    }

    #[test]
    fn embed_cache_invalidate_table_drops_only_that_table() {
        let mut c = EmbedCache::new(1024);
        let (a, b) = (0, 1 << 21);
        c.insert(a, 3);
        c.insert(b, 5);
        c.invalidate_table(a);
        assert!(!probe(&c, a, 3).0);
        assert!(probe(&c, b, 5).0);
    }

    /// Invalidating a table empties every slot it held; the hit counters
    /// belong to the caller and are untouched.
    #[test]
    fn embed_cache_invalidate_table_empties_all_its_slots() {
        let mut c = EmbedCache::new(8);
        let mut stats = HitStats::default();
        for row in 0..8 {
            c.insert(0, row);
        }
        assert!(c.hit(0, 7, &mut stats));
        c.invalidate_table(0);
        assert!(c.tags.iter().all(|&(base, _)| base == EMPTY_SLOT));
        assert_eq!(stats.hits(), 1, "invalidation keeps the stats");
        assert_eq!(c.tags.len(), 8, "an emptied cache stays enabled");
    }

    /// Fig. 10's point: "the direct mapped caching hit rate cannot match
    /// that of the more complex fully associative LRU cache" — even on a
    /// working set of scattered rows smaller than the cache.
    #[test]
    fn embed_cache_hit_rate_stays_below_lru() {
        let cap = 64;
        let mut dm = EmbedCache::new(cap);
        let mut lru = LruCache::new(cap);
        let mut dm_stats = HitStats::default();
        let mut rng = Xoshiro256::seed_from(11);
        let working_set: Vec<u64> = (0..48).map(|_| rng.gen_range(0..1 << 20)).collect();
        for _ in 0..20_000 {
            let row = working_set[rng.gen_range(0..48) as usize];
            if !dm.hit(0, row, &mut dm_stats) {
                dm.insert(0, row);
            }
            if lru.get(&row).is_none() {
                lru.insert(row, ());
            }
        }
        assert!(
            lru.stats().hit_rate() > dm_stats.hit_rate(),
            "LRU {:.3} should beat direct-mapped {:.3}",
            lru.stats().hit_rate(),
            dm_stats.hit_rate()
        );
    }

    #[test]
    fn embed_cache_of_zero_slots_is_disabled() {
        let mut c = EmbedCache::new(0);
        assert!(c.tags.is_empty());
        c.insert(0, 1);
        let (hit, stats) = probe(&c, 0, 1);
        assert!(!hit);
        assert_eq!(stats.accesses(), 0, "a disabled cache records nothing");
    }
}
