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
//!   pair list, partials — is one `EntryBufs` field, which returns whole
//!   to a free-list pool when the request completes, so steady-state
//!   requests allocate nothing for them;
//! * an entry's breakdown accumulates in its own [`SlsRequestReport`] and
//!   is folded into fixed-size running sums at completion (no
//!   per-request record is kept);
//! * on a per-channel engine pool the engine-local partial sums live in
//!   one [`EnginePartials`]: `engines × n_results` rows, of which a
//!   request's few pages write a few, and only those hold storage.
//!   Nothing but an index entry per row is cleared between requests —
//!   the first write of a row claims `dim` floats and stores `0.0 + v`,
//!   which is bit for bit what adding `v` to a zeroed element leaves,
//!   later writes add, and the merge folds only claimed rows in
//!   engine-major order — so a command costs, in time and in memory,
//!   what its pages cost, not what the pool's width costs, and its
//!   results equal a dense zero-filled fold's. The simulated charges (`translate_time`,
//!   `merge_time` over the engines that saw pages) know nothing of this;
//! * the SSD-side embedding cache is a tag array and holds no vectors: a
//!   fill writes a slot's `(table base, row)` tag, and a hit decodes its
//!   row from the page's current content, which the FTL reads untimed
//!   into a pooled page image that goes straight back to the pool.

use recssd_embedding::Quantization;
use recssd_ftl::{FtlOutcome, FwTag, ReadStarted, ReqId};
use recssd_nvme::{CmdData, NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus, XferId};
use recssd_sim::rng::mix64;
use recssd_sim::stats::{Counter, HitStats};
use recssd_sim::{IdMap, PageImage, SimDuration, SimTime};
use recssd_ssd::{DeviceCtx, MergePlacement, NdpEngine, SsdEvent, EXT_TAG_BIT};

use super::EnginePartials;
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
    /// Duration of the partial-result merge task (zero without a
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
    /// `(table base, row)` tag per slot; `None` = empty.
    tags: Vec<Option<(u64, u64)>>,
}

impl EmbedCache {
    fn new(slots: usize) -> Self {
        EmbedCache {
            tags: vec![None; slots],
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
        let hit = self.tags[self.slot(base, row)] == Some((base, row));
        if hit {
            stats.hit();
        } else {
            stats.miss();
        }
        hit
    }

    fn insert(&mut self, base: u64, row: u64) {
        if self.tags.is_empty() {
            return;
        }
        let slot = self.slot(base, row);
        self.tags[slot] = Some((base, row));
    }

    /// Empties every slot holding a vector of the table at `base`.
    fn invalidate_table(&mut self, base: u64) {
        for tag in &mut self.tags {
            if tag.is_some_and(|(b, _)| b == base) {
                *tag = None;
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
        /// Pool engine the translation ran on (`None` = firmware core,
        /// the single-core legacy path).
        engine: Option<u32>,
    },
    /// Fold the per-engine partial accumulators into the entry's result
    /// scratchpad (multi-engine path only).
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
    /// Engine-local partial accumulators, one sparse set for the pool.
    /// Unused on the single-core path, where translation folds straight
    /// into `results`.
    partials: EnginePartials,
    /// Pages translated per engine (sizes the merge charge).
    partial_pages: Vec<u32>,
}

#[derive(Debug)]
struct SlsEntry {
    qid: u16,
    write_cid: u16,
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
    /// SLBA (host-chosen, so any value up to the table alignment).
    entries: IdMap<u64, SlsEntry>,
    fw_jobs: IdMap<u64, FwJob>,
    next_tag: u64,
    dma_in: IdMap<XferId, u64>,
    dma_out: IdMap<XferId, u64>,
    reads: IdMap<ReqId, (u64, usize)>,
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
            dma_in: IdMap::new(),
            dma_out: IdMap::new(),
            reads: IdMap::new(),
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

    fn alloc_tag(&mut self, job: FwJob) -> FwTag {
        let tag = self.next_tag | EXT_TAG_BIT;
        self.next_tag += 1;
        self.fw_jobs.insert(tag, job);
        FwTag(tag)
    }

    fn charge_fw(ctx: &mut DeviceCtx<'_>, dur: SimDuration, tag: FwTag) {
        let ftl = &mut *ctx.ftl;
        let sched = &mut *ctx.sched;
        ftl.charge_firmware(ctx.now, dur, tag, &mut |d, e| sched(d, SsdEvent::Ftl(e)));
    }

    fn charge_engine(ctx: &mut DeviceCtx<'_>, engine: usize, dur: SimDuration, tag: FwTag) {
        let ftl = &mut *ctx.ftl;
        let sched = &mut *ctx.sched;
        ftl.charge_engine(ctx.now, engine, dur, tag, &mut |d, e| {
            sched(d, SsdEvent::Ftl(e))
        });
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
            let (qid, cid) = (entry.qid, entry.write_cid);
            let entry = self.entries.remove(&request).expect("entry exists");
            self.recycle(entry);
            ctx.complete(qid, NvmeCompletion::error(cid, NvmeStatus::InvalidField));
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
                ctx.ftl
                    .with_current_page(recssd_ftl::Lpn(base + page), |data| {
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
        entry.pages_pending = n_pages;
        entry.t_processed = ctx.now;
        entry.t_last_page = ctx.now;
        let (qid, write_cid) = (entry.qid, entry.write_cid);

        // Multi-engine split: per-page translation will land on the
        // engine owning the page's channel, accumulating into
        // engine-local partials that a final merge folds together.
        let engines = ctx.ftl.engine_count();
        if engines > 0 && n_pages > 0 {
            let bufs = &mut entry.bufs;
            bufs.partials
                .reset(engines, cfg.n_results as usize, cfg.dim as usize);
            bufs.partial_pages.clear();
            bufs.partial_pages.resize(engines, 0);
            entry.needs_merge = true;
        }
        entry.cfg = Some(cfg);

        // Issue all page reads through the FTL's page scheduler (step 3a);
        // FTL page-cache hits are processed directly (step 3b).
        for widx in 0..n_pages {
            let page = self.entries[&request].bufs.page_work[widx].page;
            self.stats.pages_requested.inc();
            let lpn = recssd_ftl::Lpn(base + page);
            let started = {
                let ftl = &mut *ctx.ftl;
                let sched = &mut *ctx.sched;
                ftl.read_page(ctx.now, lpn, &mut |d, e| sched(d, SsdEvent::Ftl(e)))
                    .expect("the last pair's page was checked against the logical space")
            };
            match started {
                ReadStarted::Pending(req) => {
                    self.reads.insert(req, (request, widx));
                }
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
        let run = entry.bufs.page_work[widx];
        let duration = self.cfg.translate_time(run.len as usize * cfg.row_bytes());
        let engines = ctx.ftl.engine_count();
        let engine = if engines > 0 {
            let lpn = recssd_ftl::Lpn(entry.table_base + run.page);
            let e = ctx.ftl.channel_of(lpn) as usize % engines;
            entry.bufs.partial_pages[e] += 1;
            Some(e as u32)
        } else {
            None
        };
        let tag = self.alloc_tag(FwJob::Translate {
            request,
            widx,
            data,
            duration,
            engine,
        });
        match engine {
            Some(e) => Self::charge_engine(ctx, e as usize, duration, tag),
            None => Self::charge_fw(ctx, duration, tag),
        }
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
        engine: Option<u32>,
    ) {
        let Self { cache, entries, .. } = self;
        let entry = entries.get_mut(&request).expect("entry exists");
        let cfg = entry.cfg.as_ref().expect("configured");
        let row_bytes = cfg.row_bytes();
        let rows_per_page = cfg.rows_per_page as u64;
        let quant: Quantization = cfg.quant;
        let w = entry.bufs.page_work[widx];
        let base = entry.table_base;
        // Engine translations fold into the engine-local partial rows; the
        // merge task later combines them in fixed engine order.
        let EntryBufs {
            results,
            partials,
            work_items,
            ..
        } = &mut entry.bufs;
        for &(offset, slot) in &work_items[w.items()] {
            let (bytes, slot) = (data.bytes_at(offset, row_bytes), slot as usize);
            match engine {
                Some(e) => partials.add_encoded(e as usize, slot, quant, &bytes),
                None => quant.decode_accumulate(&bytes, results.row_mut(slot)),
            }
            cache.insert(base, w.page * rows_per_page + (offset / row_bytes) as u64);
        }
        entry.report.translation += duration;
        entry.pages_pending -= 1;
        entry.t_last_page = ctx.now;
        self.maybe_finish(ctx, request);
    }

    /// Merge task done: fold the partial rows the engines wrote into the
    /// result scratchpad in fixed engine-index order — deterministic
    /// regardless of which engine finished last.
    fn apply_merge(&mut self, ctx: &mut DeviceCtx<'_>, request: u64) {
        let entry = self.entries.get_mut(&request).expect("entry exists");
        let bufs = &mut entry.bufs;
        bufs.partials.merge_into(bufs.results.as_mut_slice());
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
            // Every page is translated: fold the per-engine partials into
            // the result scratchpad. The merge is itself a timed task on a
            // config-selected resource (fw core or a designated engine);
            // its cost scales with the partials that saw work.
            entry.needs_merge = false;
            let cfg = entry.cfg.as_ref().expect("configured");
            let active = entry.bufs.partial_pages.iter().filter(|&&c| c > 0).count();
            let dur = self.cfg.merge_time(cfg.result_bytes() * active);
            entry.report.merge = dur;
            let placement = ctx
                .ftl
                .engine_config()
                .expect("engine pool configured")
                .merge;
            let tag = self.alloc_tag(FwJob::Merge { request });
            match placement {
                MergePlacement::FwCore => Self::charge_fw(ctx, dur, tag),
                MergePlacement::Engine(i) => Self::charge_engine(ctx, i as usize, dur, tag),
            }
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
        let xfer = {
            let pcie = &mut *ctx.pcie;
            let sched = &mut *ctx.sched;
            pcie.request(ctx.now, bytes, &mut |d, e| sched(d, SsdEvent::Pcie(e)))
        };
        self.dma_out.insert(xfer, request);
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
                let xfer = {
                    let pcie = &mut *ctx.pcie;
                    let sched = &mut *ctx.sched;
                    pcie.request(ctx.now, bytes, &mut |d, e| sched(d, SsdEvent::Pcie(e)))
                };
                self.dma_in.insert(xfer, request);
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

    fn on_ftl_outcome(&mut self, ctx: &mut DeviceCtx<'_>, outcome: &FtlOutcome) -> bool {
        match outcome {
            FtlOutcome::FwTaskDone { tag } => {
                let Some(job) = self.fw_jobs.remove(&tag.0) else {
                    return false;
                };
                match job {
                    FwJob::ConfigProcess { request } => {
                        self.process_config(ctx, request);
                    }
                    FwJob::Translate {
                        request,
                        widx,
                        data,
                        duration,
                        engine,
                    } => {
                        self.apply_translation(ctx, request, widx, &data, duration, engine);
                        // Done with this page image: offer it back (the
                        // page cache's eviction retires it instead while
                        // the cache still holds it).
                        ctx.ftl.recycle_page_image(data);
                    }
                    FwJob::Merge { request } => {
                        self.apply_merge(ctx, request);
                    }
                }
                true
            }
            FtlOutcome::ReadDone { req, data, .. } => {
                let Some((request, widx)) = self.reads.remove(req) else {
                    return false;
                };
                self.start_translation(ctx, request, widx, data.clone());
                true
            }
            FtlOutcome::ReadFailed { req, .. } => {
                let Some((request, _widx)) = self.reads.remove(req) else {
                    return false;
                };
                let entry = self.entries.get_mut(&request).expect("entry exists");
                entry.failed = true;
                entry.pages_pending -= 1;
                entry.t_last_page = ctx.now;
                self.maybe_finish(ctx, request);
                true
            }
            FtlOutcome::WriteDone { .. } => false,
        }
    }

    fn on_pcie_done(&mut self, ctx: &mut DeviceCtx<'_>, xfer: XferId) -> bool {
        if let Some(request) = self.dma_in.remove(&xfer) {
            // Config landed on the device: charge config processing.
            let entry = self.entries.get_mut(&request).expect("entry exists");
            entry.t_config_written = ctx.now;
            let pairs =
                (entry.raw_config.as_ref()).map_or(0, |raw| SlsConfig::pair_count(raw.len()));
            let dur = self.cfg.config_process_time(pairs);
            entry.report.config_process = dur;
            let tag = self.alloc_tag(FwJob::ConfigProcess { request });
            Self::charge_fw(ctx, dur, tag);
            return true;
        }
        if let Some(request) = self.dma_out.remove(&xfer) {
            self.finish(ctx, request);
            return true;
        }
        false
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
        assert!(c.tags.iter().all(Option::is_none));
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
