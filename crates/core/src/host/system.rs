//! The simulated host: worker pools, operator state machines and the
//! global event loop tying host and device together.
//!
//! The paper's host runtime (§4.2) uses "a threadpool of SLS workers to
//! fetch embeddings and feed post-SLS embeddings to neural network
//! workers", with the SLS worker count matched to the driver's I/O queues.
//! [`System`] reproduces that: SLS operators occupy an *SLS worker* (a
//! UNVMe polling thread bound to an NVMe queue pair) for their duration;
//! dense compute occupies an *NN worker*, each pool a [`recssd_sim::Slots`]
//! held from dispatch to finish. Operators are state machines
//! advanced by device completions and host-compute timer events, all on
//! one deterministic virtual clock.
//!
//! Each phase of an operator owns the state it needs — a baseline
//! operator's pooled I/O planner buffers, an NDP operator's plan and then
//! the device's result block — so a handler takes the phase out, works on
//! it and puts the next phase back or finishes the operator, which hands
//! the last phase's buffers back to their pools. A baseline operator that
//! a media error poisons drains through one exit whichever of its events
//! comes next: a late read, a failed read or the end of an accumulate
//! charge.

use std::collections::VecDeque;
use std::sync::Arc;

use recssd_embedding::{LookupBatch, RowScratch, TableId, TableImage};
use recssd_nvme::{CmdData, NvmeCommand, NvmeCompletion, NvmeStatus};
use recssd_obs::trace::track;
use recssd_obs::{SpanId, Tracer};
use recssd_sim::stats::HitStats;
use recssd_sim::{
    EventQueue, FxHashMap, IdMap, LruCache, PageImage, SimDuration, SimTime, Slots, StaticPartition,
};
use recssd_ssd::{SsdDevice, SsdEvent};

use crate::ndp::NdpSlsEngine;
use crate::pages::PageRun;
use crate::{DeviceError, RecSsdConfig, SlsConfig, SlsOutput, TableRegistry};

/// Largest number of recycled result buffers the host keeps around.
const OUT_POOL_CAP: usize = 256;

/// Largest number of recycled NDP pair-list buffers the host keeps.
const PAIR_POOL_CAP: usize = 256;

/// Identifier of a submitted operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(u64);

impl recssd_sim::IdKey for OpId {
    fn id(self) -> u64 {
        self.0
    }
}

/// Per-operator options for the SSD-backed SLS implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlsOptions {
    /// Outstanding NVMe reads a baseline SLS keeps in flight. The paper's
    /// *naive* configuration (Fig. 9, no pipelining) uses a small window;
    /// the optimised configuration (Fig. 10) uses a deep one.
    pub io_concurrency: usize,
    /// Baseline only: consult/fill the host-DRAM LRU vector cache
    /// (enable per table with [`System::enable_host_cache`]).
    pub use_host_cache: bool,
    /// NDP only: split hot rows to host DRAM via the static partition
    /// (install per table with [`System::set_partition`]).
    pub use_partition: bool,
    /// Baseline only: coalesce contiguous (and bridgeable) page runs
    /// into multi-block reads per [`crate::HostConfig`]'s
    /// `read_coalesce_limit`/`read_bridge_limit`. The paper's *naive*
    /// configuration issues one read per embedding, so
    /// [`SlsOptions::naive`] turns this off.
    pub coalesce_reads: bool,
}

impl Default for SlsOptions {
    fn default() -> Self {
        SlsOptions {
            io_concurrency: 16,
            use_host_cache: false,
            use_partition: false,
            coalesce_reads: true,
        }
    }
}

impl SlsOptions {
    /// The paper's naive configuration: shallow I/O window, no caching,
    /// one read command per distinct page.
    pub fn naive() -> Self {
        SlsOptions {
            io_concurrency: 3,
            use_host_cache: false,
            use_partition: false,
            coalesce_reads: false,
        }
    }
}

/// Where an SLS operator executes — the three paths the paper compares
/// (Figs. 5–10), from the model zoo and the serving runtime down to the
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlsPath {
    /// The table in host DRAM (the Fig. 5/6 DRAM baseline).
    Dram,
    /// Conventional NVMe reads with host-side accumulation (the COTS-SSD
    /// baseline), with its I/O and caching options.
    Baseline(SlsOptions),
    /// The RecSSD offload: config-write + result-read NDP commands, with
    /// its partitioning options.
    Ndp(SlsOptions),
}

impl SlsPath {
    /// Short label for reports and the `op` trace span.
    pub fn name(&self) -> &'static str {
        match self {
            SlsPath::Dram => "dram",
            SlsPath::Baseline(_) => "baseline",
            SlsPath::Ndp(_) => "ndp",
        }
    }

    /// The conventional path an NDP operator falls back to: the baseline
    /// with the same options. `None` for the other paths.
    pub fn ndp_fallback(self) -> Option<SlsPath> {
        match self {
            SlsPath::Ndp(opts) => Some(SlsPath::Baseline(opts)),
            SlsPath::Dram | SlsPath::Baseline(_) => None,
        }
    }
}

/// An operator to run on the simulated host.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// SparseLengthsSum of `batch` over `table`, on `path`.
    Sls {
        /// Target table.
        table: TableId,
        /// The lookups.
        batch: LookupBatch,
        /// Where it executes.
        path: SlsPath,
    },
    /// Dense host compute (FC layers, feature interactions): timed by the
    /// host cost model, no functional output.
    HostCompute {
        /// Floating-point operations.
        flops: f64,
        /// Bytes streamed from memory.
        bytes: f64,
    },
}

impl OpKind {
    /// An SLS over [`SlsPath::Dram`].
    pub fn dram_sls(table: TableId, batch: LookupBatch) -> Self {
        let path = SlsPath::Dram;
        OpKind::Sls { table, batch, path }
    }

    /// An SLS over [`SlsPath::Baseline`].
    pub fn baseline_sls(table: TableId, batch: LookupBatch, opts: SlsOptions) -> Self {
        let path = SlsPath::Baseline(opts);
        OpKind::Sls { table, batch, path }
    }

    /// An SLS over [`SlsPath::Ndp`].
    pub fn ndp_sls(table: TableId, batch: LookupBatch, opts: SlsOptions) -> Self {
        let path = SlsPath::Ndp(opts);
        OpKind::Sls { table, batch, path }
    }

    /// Convenience constructor for [`OpKind::HostCompute`].
    pub fn host_compute(flops: f64, bytes: f64) -> Self {
        OpKind::HostCompute { flops, bytes }
    }

    fn pool(&self) -> PoolKind {
        match self {
            OpKind::HostCompute { .. } => PoolKind::Nn,
            OpKind::Sls { .. } => PoolKind::Sls,
        }
    }

    /// The table and batch of an SLS operator (only SLS phases ask).
    fn sls(&self) -> (TableId, &LookupBatch) {
        match self {
            OpKind::Sls { table, batch, .. } => (*table, batch),
            OpKind::HostCompute { .. } => unreachable!("phase/kind mismatch"),
        }
    }
}

/// Outcome of a finished operator.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// SLS outputs (one flat vector block, one row per output slot);
    /// `None` for host compute.
    pub outputs: Option<SlsOutput>,
    /// The device-side failure that aborted the operator, if any. With an
    /// error present, `outputs` holds a partial (incorrect) accumulation
    /// and must not be served — retry, fall back or flag the rows missing.
    pub error: Option<DeviceError>,
    /// When the operator was submitted.
    pub submitted: SimTime,
    /// When it acquired a worker and began executing.
    pub started: SimTime,
    /// When it completed.
    pub finished: SimTime,
}

impl OpResult {
    /// Submission-to-completion latency (includes queueing for a worker).
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.submitted)
    }

    /// Execution time excluding worker queueing.
    pub fn service_time(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }

    /// `true` when the operator completed without a device-side failure.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolKind {
    Sls,
    Nn,
}

/// A worker pool and the operators waiting for a worker, in FIFO order.
#[derive(Debug)]
struct Pool {
    workers: Slots,
    ready: VecDeque<OpId>,
}

impl Pool {
    fn new(workers: usize) -> Self {
        Pool {
            workers: Slots::new(workers),
            ready: VecDeque::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SysEvent {
    Dev(SsdEvent),
    /// A host-compute charge of the operator ended on its worker.
    Worker(OpId),
}

/// One NVMe read of a baseline op: the wanted pages of
/// `runs[first..first + count]` plus any bridged gap pages between them,
/// fetched with a single `span`-block command so the per-command firmware
/// charge amortises across the run.
#[derive(Debug, Default)]
struct CmdRun {
    first: u32,
    count: u32,
    /// Blocks the command covers: last wanted page − first + 1.
    span: u32,
    /// The completed command's page images, one per block of its span,
    /// while it waits for its accumulate charge (empty otherwise).
    pages: Vec<PageImage>,
}

/// Pooled per-op buffers of the baseline I/O planner, recycled across
/// operators so steady-state baseline requests allocate nothing for them.
#[derive(Debug, Default)]
struct BaseIoBufs {
    /// Staging triples `(page, offset, slot)` sorted by page.
    stage: Vec<(u64, u32, u32)>,
    /// One record per distinct page, ascending page order.
    runs: Vec<PageRun>,
    /// `(byte offset, result slot)` items grouped by `runs`.
    items: Vec<(u32, u32)>,
    /// One record per NVMe read command: a maximal (capped) group of
    /// consecutive `runs` whose pages are contiguous.
    cmds: Vec<CmdRun>,
    /// Completed commands awaiting their accumulate charge, in
    /// completion order (indices into `cmds`).
    backlog: VecDeque<usize>,
}

impl BaseIoBufs {
    fn clear(&mut self) {
        self.stage.clear();
        self.runs.clear();
        self.items.clear();
        self.cmds.clear();
        self.backlog.clear();
    }
}

/// A baseline op's reads in flight: its planner buffers, the next
/// command to issue and the command whose accumulate charge is running.
#[derive(Debug)]
struct BaseIo {
    bufs: BaseIoBufs,
    opts: SlsOptions,
    next: usize,
    /// Read commands issued and not yet completed.
    in_flight: usize,
    accum_current: Option<(usize, Vec<PageImage>)>,
    cmds_done: usize,
}

/// An NDP op's split: the cold pairs' config for the device and the hot
/// pairs the host gathers from its own DRAM.
#[derive(Debug)]
struct NdpPlan {
    cold_cfg: SlsConfig,
    hot_pairs: Vec<(u64, u32)>,
    request_id: u64,
}

/// Where an operator is, with everything that phase holds: an op's
/// in-flight state lives in its phase and nowhere else, and leaves it
/// only through [`System::release`] when the op finishes.
// The BaseIo variant is big, but boxing it would re-introduce a per-op
// heap allocation on the steady-state baseline path that the pooled
// planner buffers exist to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Default)]
enum Phase {
    #[default]
    Pending,
    Compute,
    /// Host software before a baseline or NDP operator plans its I/O.
    Prep(SlsPath),
    BaseIo(BaseIo),
    NdpHotGather(NdpPlan),
    NdpAwaitWrite(NdpPlan),
    NdpAwaitRead(NdpPlan),
    /// The host folds the device's result block (the payload) in.
    NdpMerge(NdpPlan, Vec<u8>),
}

#[derive(Debug)]
struct Op {
    kind: OpKind,
    phase: Phase,
    worker: Option<usize>,
    deps_left: usize,
    dependents: Vec<OpId>,
    submitted: SimTime,
    started: SimTime,
    outputs: SlsOutput,
    qid: u16,
    /// First device-side failure observed for this op (poisons it: no
    /// further I/O is issued and the result carries the error).
    failed: Option<DeviceError>,
    /// This op's trace span, pre-allocated at submission so phase spans
    /// can reference it before it is emitted (at completion).
    /// `SpanId::NONE` when tracing is off.
    span: SpanId,
    /// Caller-provided parent for the op span (a serving-layer sub-batch
    /// span, via [`System::submit_traced`]).
    span_parent: SpanId,
    /// When the op's current traced phase began (queueing counts as the
    /// first phase); advanced by each emitted phase span.
    phase_started: SimTime,
}

/// The simulated host + device system. See the [crate docs](crate) for a
/// quickstart.
#[derive(Debug)]
pub struct System {
    cfg: RecSsdConfig,
    dev: SsdDevice<NdpSlsEngine>,
    q: EventQueue<SysEvent>,
    sls: Pool,
    nn: Pool,
    ops: IdMap<OpId, Op>,
    next_op: u64,
    next_cid: Vec<u16>,
    /// Per I/O queue, by command id: the operator each command in flight
    /// belongs to and, for a baseline read, its index in the operator's
    /// command list (0 for an NDP command).
    pending_cmd: Vec<IdMap<u16, (OpId, usize)>>,
    registry: TableRegistry,
    /// The baseline's host-DRAM LRU per table: which rows the simulated
    /// DRAM holds. A hit's vector comes from the bound table image.
    host_caches: FxHashMap<u32, LruCache<u64, ()>>,
    partitions: FxHashMap<u32, StaticPartition>,
    partition_stats: FxHashMap<u32, HitStats>,
    next_request: u64,
    results: IdMap<OpId, OpResult>,
    /// Free-list of recycled flat result buffers (see
    /// [`System::recycle_outputs`]).
    out_pool: Vec<SlsOutput>,
    /// Finished SLS operators' id buffers, and how many buffers
    /// [`System::batch_buffer`] lent that are not paid back yet.
    batch_pool: Vec<Vec<u64>>,
    batch_loans: usize,
    /// Free-list of recycled baseline I/O planner buffers.
    baseio_pool: Vec<BaseIoBufs>,
    /// Free-list of recycled NDP pair-list buffers (plan staging,
    /// hot/cold partitions).
    pair_pool: Vec<Vec<(u64, u32)>>,
    /// Reused completion-drain scratch.
    completions: Vec<(u16, NvmeCompletion)>,
    /// Reused encode/decode scratch for host-DRAM row gathers.
    row_scratch: RowScratch,
    /// Sim-time span tracer for host-side op phases (disabled by default;
    /// see [`System::set_tracer`]).
    tracer: Tracer,
}

impl System {
    /// Builds a system: device + NDP engine + host model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: RecSsdConfig) -> Self {
        cfg.validate();
        let dev = SsdDevice::with_engine(cfg.ssd.clone(), NdpSlsEngine::new(cfg.ndp.clone()));
        let io_queues = cfg.ssd.io_queues;
        System {
            dev,
            q: EventQueue::new(),
            sls: Pool::new(cfg.host.sls_workers),
            nn: Pool::new(cfg.host.nn_workers),
            ops: IdMap::new(),
            next_op: 0,
            next_cid: vec![0; io_queues],
            pending_cmd: (0..io_queues).map(|_| IdMap::new()).collect(),
            registry: TableRegistry::new(cfg.ndp.table_align),
            host_caches: FxHashMap::default(),
            partitions: FxHashMap::default(),
            partition_stats: FxHashMap::default(),
            next_request: 0,
            results: IdMap::new(),
            out_pool: Vec::new(),
            batch_pool: Vec::new(),
            batch_loans: 0,
            baseio_pool: Vec::new(),
            pair_pool: Vec::new(),
            completions: Vec::new(),
            row_scratch: RowScratch::default(),
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Installs a sim-time span tracer. The system emits host-side op
    /// phases on the tracer's pid at [`track::TID_DEVICE`], and forwards
    /// the tracer to the FTL, whose firmware and flash spans land on
    /// [`track::TID_FW`] / [`track::TID_FLASH`] of the same pid. Pass
    /// [`Tracer::disabled`] to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dev.ftl_mut().set_tracer(tracer.clone());
        self.tracer = tracer.with_tid(track::TID_DEVICE);
    }

    /// Resets every statistic this system owns, across the whole stack:
    /// device command counters, the NDP engine's request breakdowns, PCIe
    /// link counters, FTL counters and cache hit stats, firmware-core and
    /// SLS-engine busy time, flash array counters and latency histograms,
    /// fault-plan fire counts (injection streams are untouched,
    /// preserving deterministic replay), host LRU cache stats, partition
    /// stats and the worker pools' busy time. Table contents, mappings
    /// and the virtual clock are unaffected.
    pub fn reset_stats(&mut self) {
        self.dev.reset_stats();
        self.reset_host_stats();
    }

    /// Processes every pending event up to and including `to`, then
    /// advances the clock to exactly `to` — the clock-merge path that
    /// lets a caller keep several operators in flight while staying on an
    /// external timeline: work scheduled past `to` stays pending, and
    /// finished operators become visible to [`System::try_take_result`].
    ///
    /// Calling with `to` in the past (relative to the system clock) only
    /// processes events at or before `to` that are already due, which is
    /// a no-op for a causally driven caller.
    pub fn run_until(&mut self, to: SimTime) {
        while self.q.peek_time().is_some_and(|t| t <= to) {
            let (now, ev) = self.q.pop().expect("peeked a pending event");
            self.handle_event(now, ev);
        }
        self.q.advance_to(to);
    }

    /// Timestamp of the system's next internal event, if any — what an
    /// external co-simulation loop uses to schedule its next visit.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    /// The system configuration.
    pub fn config(&self) -> &RecSsdConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// The simulated device (statistics, FTL access).
    pub fn device(&self) -> &SsdDevice<NdpSlsEngine> {
        &self.dev
    }

    /// Mutable device access (cache drops, statistic resets).
    pub fn device_mut(&mut self) -> &mut SsdDevice<NdpSlsEngine> {
        &mut self.dev
    }

    /// Installs (or clears) a deterministic fault-injection plan on the
    /// device's flash array. Pass `None` to disable injection. Plans with
    /// all rates zero and no brownout windows are bit-identical (results,
    /// timings, statistics) to no plan at all.
    pub fn set_fault_plan(&mut self, plan: Option<crate::FaultPlan>) {
        self.dev.set_fault_plan(plan);
    }

    /// Statistics of the installed fault plan (faults fired so far), if a
    /// plan is installed.
    pub fn fault_stats(&self) -> Option<crate::FaultStats> {
        self.dev.ftl().fault_plan().map(|p| p.stats().clone())
    }

    /// The table registry.
    pub fn registry(&self) -> &TableRegistry {
        &self.registry
    }

    /// Registers a table and preloads its image onto the device.
    pub fn add_table(&mut self, image: TableImage) -> TableId {
        let id = self.registry.register(image);
        self.registry.bind_to_device(id, &mut self.dev);
        id
    }

    /// Re-binds `id`'s registry slot to a new image (placement refresh:
    /// the repacked table reuses its alignment slot instead of consuming
    /// a fresh one). The region is re-preloaded wide enough to shadow
    /// whatever the old image covered, and every host- or device-side
    /// structure keyed by the old image's row space is flushed: stale
    /// FTL-cached pages are evicted, the NDP engine's SSD-side embedding
    /// cache forgets the table's rows, the table's host LRU vector cache
    /// (if enabled) is cleared, and any installed static partition is
    /// removed — its hot ids referred to the old row space, so the caller
    /// must install a fresh one if partitioning is still wanted.
    ///
    /// The caller must guarantee no in-flight operator still reads the
    /// old binding — the serving layer's plan double-buffering retires a
    /// slot only once every operator against it has drained.
    pub fn replace_table(&mut self, id: TableId, image: TableImage) {
        let old_pages = self.registry.replace(id, image);
        let b = self.registry.binding(id);
        let pages = b.image.pages().max(old_pages);
        self.dev.preload(
            recssd_ftl::Lpn(b.base_lpn),
            pages,
            Arc::new(recssd_embedding::TableImageOracle::new(
                b.image.clone(),
                b.base_lpn,
            )),
        );
        self.dev
            .ftl_mut()
            .invalidate_range(recssd_ftl::Lpn(b.base_lpn), pages);
        self.dev.engine_mut().invalidate_table(b.base_lpn);
        if let Some(cache) = self.host_caches.get_mut(&id.0) {
            cache.clear();
        }
        self.partitions.remove(&id.0);
    }

    /// Enables the baseline's host-DRAM LRU vector cache for `table` with
    /// the given entry capacity (§5 uses 2 K entries per table).
    pub fn enable_host_cache(&mut self, table: TableId, entries: usize) {
        self.host_caches.insert(table.0, LruCache::new(entries));
    }

    /// Hit statistics of the host LRU cache for `table`, if enabled.
    pub fn host_cache_stats(&self, table: TableId) -> Option<HitStats> {
        self.host_caches.get(&table.0).map(|c| c.stats())
    }

    /// Installs a static hot-row partition for `table` (used by NDP ops
    /// with [`SlsOptions::use_partition`]).
    pub fn set_partition(&mut self, table: TableId, partition: StaticPartition) {
        self.partitions.insert(table.0, partition);
    }

    /// Hit statistics of the static partition for `table` (a "hit" is a
    /// lookup served from host DRAM) — the percentages annotated above
    /// the Fig. 10(d–f) bars.
    pub fn partition_stats(&self, table: TableId) -> Option<HitStats> {
        self.partition_stats.get(&table.0).copied()
    }

    /// Resets host-side statistics (between warm-up and measurement
    /// phases): cache and partition stats and the worker pools' busy time.
    fn reset_host_stats(&mut self) {
        for c in self.host_caches.values_mut() {
            c.reset_stats();
        }
        self.partition_stats.clear();
        let now = self.q.now();
        self.sls.workers.reset(now);
        self.nn.workers.reset(now);
    }

    /// Busy time of the SLS worker pool since the last stats reset: Σ over
    /// workers of their holds, dispatch to finish (an open hold up to now).
    pub fn sls_busy(&self) -> SimDuration {
        self.sls.workers.busy(self.q.now())
    }

    /// Submits an operator with no dependencies.
    pub fn submit(&mut self, kind: OpKind) -> OpId {
        self.submit_after(kind, &[])
    }

    /// Submits an operator with no dependencies, parenting its trace
    /// spans under `parent` (e.g. a serving-layer sub-batch span).
    /// Identical to [`System::submit`] when tracing is disabled.
    pub fn submit_traced(&mut self, kind: OpKind, parent: SpanId) -> OpId {
        self.submit_inner(kind, &[], parent)
    }

    /// Submits an operator that starts only after `deps` complete.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is unknown.
    pub fn submit_after(&mut self, kind: OpKind, deps: &[OpId]) -> OpId {
        self.submit_inner(kind, deps, SpanId::NONE)
    }

    fn submit_inner(&mut self, kind: OpKind, deps: &[OpId], span_parent: SpanId) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        let pool = kind.pool();
        let mut deps_left = 0;
        for &d in deps {
            if self.results.contains_key(&d) {
                continue; // already finished
            }
            let dep = self.ops.get_mut(&d).expect("unknown dependency");
            dep.dependents.push(id);
            deps_left += 1;
        }
        // SLS ops reuse a pooled result buffer; host compute carries none.
        let outputs = match &kind {
            OpKind::HostCompute { .. } => SlsOutput::default(),
            _ => self.out_pool.pop().unwrap_or_default(),
        };
        let op = Op {
            kind,
            phase: Phase::Pending,
            worker: None,
            deps_left,
            dependents: Vec::new(),
            submitted: self.q.now(),
            started: self.q.now(),
            outputs,
            qid: 0,
            failed: None,
            span: self.tracer.alloc_id(),
            span_parent,
            phase_started: self.q.now(),
        };
        self.ops.insert(id, op);
        if deps_left == 0 {
            self.pool_mut(pool).ready.push_back(id);
            self.dispatch(pool);
        }
        id
    }

    /// The result of a finished operator.
    ///
    /// # Panics
    ///
    /// Panics if the operator has not completed (call
    /// [`System::run_until_idle`] first).
    pub fn result(&self, op: OpId) -> &OpResult {
        self.results
            .get(&op)
            .expect("operator not finished; run_until_idle() first")
    }

    /// Removes and returns the result of a finished operator, so its
    /// buffer can be handed back via [`System::recycle_outputs`] once
    /// consumed — the steady-state serving idiom that keeps the host side
    /// allocation-free across requests.
    ///
    /// # Panics
    ///
    /// Panics if the operator has not completed.
    pub fn take_result(&mut self, op: OpId) -> OpResult {
        self.results
            .remove(&op)
            .expect("operator not finished; run_until_idle() first")
    }

    /// Non-panicking completion poll: removes and returns the result if
    /// `op` has finished, `None` while it is still in flight. The polling
    /// companion of [`System::run_until`] for callers tracking multiple
    /// outstanding operators without a single drain point.
    pub fn try_take_result(&mut self, op: OpId) -> Option<OpResult> {
        self.results.remove(&op)
    }

    /// `true` while some finished operator's result has not been taken —
    /// the cheap check a poller makes before [`System::try_take_result`].
    pub fn has_results(&self) -> bool {
        !self.results.is_empty()
    }

    /// Returns a consumed result buffer to the free-list pool; the next
    /// submitted SLS operator reuses it instead of allocating.
    pub fn recycle_outputs(&mut self, outputs: SlsOutput) {
        if self.out_pool.len() < OUT_POOL_CAP {
            self.out_pool.push(outputs);
        }
    }

    /// An id buffer for the next SLS operator's batch
    /// ([`LookupBatch::from_outputs`]): a finished operator's, else a new
    /// one. Each call lets one finished SLS operator pay its batch's
    /// buffer back, so building every batch this way allocates no id
    /// buffer once warm, and a caller that never asks retains none.
    pub fn batch_buffer(&mut self) -> Vec<u64> {
        self.batch_loans += 1;
        self.batch_pool.pop().unwrap_or_default()
    }

    /// Drives the event loop until nothing remains in flight.
    ///
    /// # Panics
    ///
    /// Panics if operators are still pending when events run out (a
    /// dependency cycle or an operator stuck waiting).
    pub fn run_until_idle(&mut self) {
        while let Some((now, ev)) = self.q.pop() {
            self.handle_event(now, ev);
        }
        assert!(
            self.ops.is_empty(),
            "operators stuck with no pending events: {:?}",
            self.ops.keys().collect::<Vec<_>>()
        );
        assert!(self.dev.idle(), "device busy with no pending events");
    }

    fn handle_event(&mut self, now: SimTime, ev: SysEvent) {
        match ev {
            SysEvent::Dev(dev_ev) => {
                {
                    let Self { dev, q, .. } = self;
                    dev.handle(now, dev_ev, &mut |d, e| q.push_after(d, SysEvent::Dev(e)));
                }
                self.poll_completions(now);
            }
            SysEvent::Worker(id) => self.on_worker_event(now, id),
        }
    }

    fn pool_mut(&mut self, pool: PoolKind) -> &mut Pool {
        match pool {
            PoolKind::Sls => &mut self.sls,
            PoolKind::Nn => &mut self.nn,
        }
    }

    /// Assigns free workers to ready operators.
    fn dispatch(&mut self, pool: PoolKind) {
        let now = self.q.now();
        while !self.pool_mut(pool).ready.is_empty() {
            let p = self.pool_mut(pool);
            let Some(worker) = p.workers.acquire(now) else {
                return;
            };
            let id = p.ready.pop_front().expect("checked");
            let op = self.ops.get_mut(&id).expect("ready op exists");
            op.worker = Some(worker);
            op.started = now;
            op.qid = (worker % self.cfg.ssd.io_queues) as u16;
            self.trace_phase(id, "op:queue", now);
            self.start_op(now, id);
        }
    }

    /// Charges host compute on the op's worker; the continuation runs at
    /// the matching [`SysEvent::Worker`].
    fn charge(&mut self, op: OpId, dur: SimDuration) {
        self.q.push_after(dur, SysEvent::Worker(op));
    }

    /// Emits a phase span `[op.phase_started, now]` parented to the op's
    /// span, then restarts the phase clock. No-op when tracing is off.
    fn trace_phase(&mut self, id: OpId, name: &'static str, now: SimTime) {
        if !self.tracer.enabled() {
            return;
        }
        let op = self.ops.get_mut(&id).expect("op exists");
        if op.span.is_some() {
            self.tracer.span(name, op.phase_started, now, op.span);
        }
        op.phase_started = now;
    }

    fn host(&self) -> &crate::HostConfig {
        &self.cfg.host
    }

    fn dram_time(&self, bytes: f64) -> SimDuration {
        SimDuration::from_secs_f64(bytes / self.host().dram_bytes_per_sec)
    }

    fn start_op(&mut self, _now: SimTime, id: OpId) {
        let host = self.host().clone();
        let op = self.ops.get_mut(&id).expect("op exists");
        match &op.kind {
            OpKind::Sls {
                table,
                batch,
                path: SlsPath::Dram,
            } => {
                let image = self.registry.binding(*table).image.clone();
                let lookups = batch.total_lookups();
                let bytes = lookups as f64 * image.table().spec().row_bytes() as f64
                    + (batch.outputs() * image.table().spec().dim * 4) as f64;
                // Functional result: the golden reference, accumulated
                // straight into the pooled flat buffer through the
                // system-owned row scratch (no per-operator allocation).
                op.outputs.reset(batch.outputs(), image.table().spec().dim);
                recssd_embedding::sls_reference_with(
                    image.table(),
                    batch,
                    &mut self.row_scratch,
                    op.outputs.as_mut_slice(),
                );
                op.phase = Phase::Compute;
                let dur =
                    SimDuration::from_ns(host.op_overhead_ns + host.per_lookup_ns * lookups as u64)
                        + self.dram_time(bytes);
                self.charge(id, dur);
            }
            OpKind::HostCompute { flops, bytes } => {
                let compute = flops / host.gflops;
                let memory = bytes / host.dram_bytes_per_sec;
                op.phase = Phase::Compute;
                let dur = SimDuration::from_ns(host.op_overhead_ns)
                    + SimDuration::from_secs_f64(compute.max(memory));
                self.charge(id, dur);
            }
            OpKind::Sls { batch, path, .. } => {
                let lookups = batch.total_lookups();
                op.phase = Phase::Prep(*path);
                let dur =
                    SimDuration::from_ns(host.op_overhead_ns + host.per_lookup_ns * lookups as u64);
                self.charge(id, dur);
            }
        }
    }

    /// Takes the op's phase out for a handler, which moves the op on by
    /// putting its next phase back ([`System::set_phase`]) or finishes it.
    fn take_phase(&mut self, id: OpId) -> Phase {
        std::mem::take(&mut self.ops.get_mut(&id).expect("op exists").phase)
    }

    fn set_phase(&mut self, id: OpId, phase: Phase) {
        self.ops.get_mut(&id).expect("op exists").phase = phase;
    }

    fn on_worker_event(&mut self, now: SimTime, id: OpId) {
        match self.take_phase(id) {
            Phase::Compute => self.finish_op(now, id, Phase::Compute),
            Phase::Prep(SlsPath::Baseline(opts)) => self.baseline_plan(now, id, opts),
            Phase::Prep(SlsPath::Ndp(opts)) => self.ndp_plan(now, id, opts),
            Phase::BaseIo(io) => self.baseline_accum_done(now, id, io),
            Phase::NdpHotGather(plan) => {
                self.trace_phase(id, "ndp:gather", now);
                self.ndp_send_write(now, id, plan)
            }
            Phase::NdpMerge(plan, data) => self.ndp_merge_done(now, id, plan, data),
            phase @ (Phase::Pending
            | Phase::Prep(SlsPath::Dram)
            | Phase::NdpAwaitWrite(_)
            | Phase::NdpAwaitRead(_)) => {
                unreachable!("worker event in a phase without a charge: {phase:?}")
            }
        }
    }

    // ----- baseline SLS -----

    fn baseline_plan(&mut self, now: SimTime, id: OpId, opts: SlsOptions) {
        self.trace_phase(id, "base:plan", now);
        // Disjoint-field borrows: the batch stays inside the op (no
        // clone) while the caches and flat accumulator are consulted.
        let Self {
            ops,
            registry,
            host_caches,
            baseio_pool,
            row_scratch,
            cfg,
            ..
        } = self;
        let op = ops.get_mut(&id).expect("op");
        let (table, batch) = op.kind.sls();
        assert!(
            opts.io_concurrency >= 1 && opts.io_concurrency <= cfg.ssd.queue_depth,
            "io_concurrency must be within the queue depth"
        );
        let image = registry.binding(table).image.clone();
        let dim = image.table().spec().dim;
        op.outputs.reset(batch.outputs(), dim);
        let mut bufs = baseio_pool.pop().unwrap_or_default();
        bufs.clear();
        let mut cache = opts
            .use_host_cache
            .then(|| host_caches.get_mut(&table.0))
            .flatten();
        for (slot, ids) in batch.per_output().iter().enumerate() {
            for &row in ids {
                if cache.as_mut().is_some_and(|c| c.get(&row).is_some()) {
                    // A hit's vector is the bound image's row, as a
                    // static-partition hot row's is.
                    image
                        .table()
                        .accumulate_row(row, row_scratch, op.outputs.row_mut(slot));
                } else {
                    let (page, off) = image.page_of_row(row);
                    bufs.stage.push((page, off as u32, slot as u32));
                }
            }
        }
        // Group by page into the flat run/item lists (in-place sort keeps
        // the planner allocation-free once the pooled buffers are warm).
        bufs.stage.sort_unstable();
        for &(page, off, slot) in &bufs.stage {
            PageRun::push(&mut bufs.runs, &mut bufs.items, page, (off, slot));
        }
        // Coalesce nearby pages into multi-block commands: runs are in
        // ascending page order, so one scan suffices. A run joins the
        // open command while the command stays within the span limit,
        // reading through up to `read_bridge_limit` unwanted pages to
        // reach it. Each command charges the serial firmware once for
        // its whole span.
        let (coalesce, bridge) = if opts.coalesce_reads {
            (
                cfg.host.read_coalesce_limit as u64,
                cfg.host.read_bridge_limit as u64,
            )
        } else {
            (1, 0)
        };
        for (i, r) in bufs.runs.iter().enumerate() {
            let joined = match bufs.cmds.last_mut() {
                Some(c) => {
                    let first_page = bufs.runs[c.first as usize].page;
                    let span = r.page - first_page + 1;
                    let gap = span - c.span as u64 - 1;
                    if span <= coalesce && gap <= bridge {
                        c.count += 1;
                        c.span = span as u32;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            if !joined {
                bufs.cmds.push(CmdRun {
                    first: i as u32,
                    count: 1,
                    span: 1,
                    pages: Vec::new(),
                });
            }
        }
        let mut io = BaseIo {
            bufs,
            opts,
            next: 0,
            in_flight: 0,
            accum_current: None,
            cmds_done: 0,
        };
        if io.bufs.cmds.is_empty() {
            // Every row was a host-cache hit: no device work at all.
            self.finish_op(now, id, Phase::BaseIo(io));
            return;
        }
        self.baseline_issue(now, id, &mut io);
        self.set_phase(id, Phase::BaseIo(io));
    }

    /// Issues (possibly multi-page) reads up to the concurrency window.
    fn baseline_issue(&mut self, now: SimTime, id: OpId, io: &mut BaseIo) {
        let table = self.ops[&id].kind.sls().0;
        let base = self.registry.binding(table).base_lpn;
        let qid = self.ops[&id].qid;
        while io.in_flight < io.opts.io_concurrency && io.next < io.bufs.cmds.len() {
            let idx = io.next;
            io.next += 1;
            io.in_flight += 1;
            let cmd = &io.bufs.cmds[idx];
            let (page, span) = (io.bufs.runs[cmd.first as usize].page, cmd.span);
            let cid = self.alloc_cid(qid);
            self.pending_cmd[qid as usize].insert(cid, (id, idx));
            self.submit_cmd(now, qid, NvmeCommand::read(cid, base + page, span));
        }
    }

    /// The read completion of command `idx` (one or more pages) arrived
    /// for a baseline op; `data` is `None` when the read failed, which
    /// has already poisoned the op.
    fn baseline_on_read(
        &mut self,
        now: SimTime,
        id: OpId,
        idx: usize,
        data: Option<Vec<PageImage>>,
        mut io: BaseIo,
    ) {
        io.in_flight -= 1;
        if self.ops[&id].failed.is_some() {
            self.baseline_drain(now, id, io, data);
            return;
        }
        let data = data.expect("a read that did not poison its op delivers pages");
        io.bufs.cmds[idx].pages = data;
        io.bufs.backlog.push_back(idx);
        self.baseline_issue(now, id, &mut io);
        if io.accum_current.is_none() {
            self.baseline_start_accum(id, &mut io);
        }
        self.set_phase(id, Phase::BaseIo(io));
    }

    /// Starts the host-side completion-processing + accumulate charge for
    /// the next backlogged command (all of its pages fold in one charge:
    /// the per-command driver software cost amortises with coalescing
    /// exactly like the firmware cost does).
    fn baseline_start_accum(&mut self, id: OpId, io: &mut BaseIo) {
        let Some(idx) = io.bufs.backlog.pop_front() else {
            return;
        };
        let cmd = &mut io.bufs.cmds[idx];
        let data = std::mem::take(&mut cmd.pages);
        let vectors: usize = io.bufs.runs[cmd.first as usize..(cmd.first + cmd.count) as usize]
            .iter()
            .map(|r| r.len as usize)
            .sum();
        let host = self.host();
        let table = self.ops[&id].kind.sls().0;
        let row_bytes = self
            .registry
            .binding(table)
            .image
            .table()
            .spec()
            .row_bytes();
        let dur = SimDuration::from_ns(host.sw_cmd_ns + host.per_lookup_ns * vectors as u64)
            + self.dram_time((vectors * row_bytes) as f64);
        io.accum_current = Some((idx, data));
        self.charge(id, dur);
    }

    /// The accumulate charge finished: fold every page of the command
    /// into the flat outputs with the fused decode (no per-vector
    /// allocation), and record each row in the host LRU if the op uses
    /// it — a key insert, since the LRU holds no vector bytes.
    fn baseline_accum_done(&mut self, now: SimTime, id: OpId, mut io: BaseIo) {
        let (idx, data) = io.accum_current.take().expect("accumulating a command");
        if self.ops[&id].failed.is_some() {
            // The op was poisoned while this charge was in flight.
            self.baseline_drain(now, id, io, Some(data));
            return;
        }
        let Self {
            ops,
            registry,
            host_caches,
            ..
        } = self;
        let op = ops.get_mut(&id).expect("op");
        let table = op.kind.sls().0;
        let image = &registry.binding(table).image;
        let row_bytes = image.table().spec().row_bytes();
        let quant = image.table().spec().quant;
        let mut cache = io
            .opts
            .use_host_cache
            .then(|| host_caches.get_mut(&table.0))
            .flatten();
        let cmd = &io.bufs.cmds[idx];
        let first_page = io.bufs.runs[cmd.first as usize].page;
        for run in &io.bufs.runs[cmd.first as usize..(cmd.first + cmd.count) as usize] {
            // A wanted page sits at its distance from the command's first
            // page (bridged gap pages occupy their slots unused); rows
            // decode straight out of the device's image of it.
            let page = &data[(run.page - first_page) as usize];
            for &(off, slot) in &io.bufs.items[run.items()] {
                let off = off as usize;
                quant.decode_accumulate(
                    &page.bytes_at(off, row_bytes),
                    op.outputs.row_mut(slot as usize),
                );
                if let Some(cache) = cache.as_deref_mut() {
                    let row = run.page * image.rows_per_page() + (off / row_bytes) as u64;
                    cache.insert(row, ());
                }
            }
        }
        // The command has been folded in; its page images go back to the
        // device, which returns each to the flash pool once the page
        // cache lets go of it too.
        self.dev.recycle_buffer(CmdData::Pages(data));
        io.cmds_done += 1;
        if io.bufs.backlog.is_empty() && io.in_flight == 0 && io.next == io.bufs.cmds.len() {
            debug_assert_eq!(io.cmds_done, io.bufs.cmds.len());
            self.finish_op(now, id, Phase::BaseIo(io));
            return;
        }
        self.baseline_start_accum(id, &mut io);
        self.set_phase(id, Phase::BaseIo(io));
    }

    /// The one exit of a poisoned baseline op: it issues no more reads and
    /// folds nothing more in. `spent` (the pages of a read that completed,
    /// or finished its accumulate charge, after the poison) and every
    /// buffered command go back to the device unread, and the op finishes
    /// with its error once no read and no accumulate charge is in flight.
    fn baseline_drain(
        &mut self,
        now: SimTime,
        id: OpId,
        mut io: BaseIo,
        spent: Option<Vec<PageImage>>,
    ) {
        io.next = io.bufs.cmds.len();
        io.bufs.backlog.clear();
        let waiting = io
            .bufs
            .cmds
            .iter_mut()
            .map(|c| std::mem::take(&mut c.pages));
        for data in spent.into_iter().chain(waiting.filter(|d| !d.is_empty())) {
            self.dev.recycle_buffer(CmdData::Pages(data));
        }
        if io.in_flight == 0 && io.accum_current.is_none() {
            self.finish_op(now, id, Phase::BaseIo(io));
        } else {
            self.set_phase(id, Phase::BaseIo(io));
        }
    }

    // ----- NDP SLS -----

    fn ndp_plan(&mut self, now: SimTime, id: OpId, opts: SlsOptions) {
        self.trace_phase(id, "ndp:plan", now);
        // Disjoint-field borrows keep the batch inside the op (no clone);
        // only the flattened pair list is materialised, once.
        let Self {
            ops,
            registry,
            partitions,
            partition_stats,
            cfg,
            next_request,
            pair_pool,
            ..
        } = self;
        let op = ops.get_mut(&id).expect("op");
        let (table, batch) = op.kind.sls();
        let binding = registry.binding(table);
        let image = &binding.image;
        let spec = image.table().spec();
        // All pair lists come from (and return to) the pool, so the plan
        // allocates nothing once warm.
        let mut pairs = pair_pool.pop().unwrap_or_default();
        batch.pairs_into(&mut pairs);
        let (hot_pairs, cold_pairs) = match opts
            .use_partition
            .then(|| partitions.get(&table.0))
            .flatten()
        {
            Some(partition) => {
                let mut hot = pair_pool.pop().unwrap_or_default();
                let mut cold = pair_pool.pop().unwrap_or_default();
                for pair in pairs.drain(..) {
                    if partition.is_hot(pair.0) {
                        hot.push(pair);
                    } else {
                        cold.push(pair);
                    }
                }
                if pair_pool.len() < PAIR_POOL_CAP {
                    pair_pool.push(pairs);
                }
                (hot, cold)
            }
            None => (pair_pool.pop().unwrap_or_default(), pairs),
        };
        if opts.use_partition {
            let stats = partition_stats.entry(table.0).or_default();
            stats.add_hits(hot_pairs.len() as u64);
            stats.add_misses(cold_pairs.len() as u64);
        }
        let cold_cfg = SlsConfig {
            dim: spec.dim as u32,
            quant: spec.quant,
            rows_per_page: image.rows_per_page() as u32,
            n_results: batch.outputs() as u32,
            pairs: cold_pairs,
        };
        let request_id = *next_request % cfg.ndp.table_align;
        *next_request += 1;
        op.outputs.reset(batch.outputs(), spec.dim);
        let hot = hot_pairs.len();
        let plan = NdpPlan {
            cold_cfg,
            hot_pairs,
            request_id,
        };
        if hot == 0 {
            self.ndp_send_write(now, id, plan);
        } else {
            // Gather the hot rows from host DRAM (the static partition).
            let host = self.host();
            let dur = SimDuration::from_ns(host.per_lookup_ns * hot as u64)
                + self.dram_time((hot * spec.row_bytes()) as f64);
            self.set_phase(id, Phase::NdpHotGather(plan));
            self.charge(id, dur);
        }
    }

    /// Hot gather done (or skipped): fold hot partial sums in and send the
    /// NDP config-write.
    fn ndp_send_write(&mut self, now: SimTime, id: OpId, plan: NdpPlan) {
        let Self {
            ops,
            registry,
            row_scratch,
            cfg,
            dev,
            ..
        } = self;
        let op = ops.get_mut(&id).expect("op");
        let binding = registry.binding(op.kind.sls().0);
        let base = binding.base_lpn;
        let align = cfg.ndp.table_align;
        // Functional hot-partition accumulation, through the reused
        // scratch (no per-row vectors).
        let table_data = binding.image.table();
        for &(row, slot) in &plan.hot_pairs {
            table_data.accumulate_row(row, row_scratch, op.outputs.row_mut(slot as usize));
        }
        if plan.cold_cfg.pairs.is_empty() {
            // Everything was hot: no device work at all.
            self.finish_op(now, id, Phase::NdpHotGather(plan));
            return;
        }
        // Encode into a recycled transfer buffer: the engine hands the
        // spent payload back to the same pool after parsing it, closing
        // the config-write allocation loop.
        let mut payload = dev.take_host_buffer(plan.cold_cfg.encoded_len());
        plan.cold_cfg.encode_into(&mut payload);
        let slba = NvmeCommand::ndp_slba(base, plan.request_id, align);
        let qid = op.qid;
        op.phase = Phase::NdpAwaitWrite(plan);
        let cid = self.alloc_cid(qid);
        self.pending_cmd[qid as usize].insert(cid, (id, 0));
        self.submit_cmd(now, qid, NvmeCommand::ndp_write(cid, slba, payload));
    }

    fn ndp_on_write_done(&mut self, now: SimTime, id: OpId, plan: NdpPlan) {
        self.trace_phase(id, "ndp:write", now);
        let table = self.ops[&id].kind.sls().0;
        let base = self.registry.binding(table).base_lpn;
        let nlb = plan.cold_cfg.result_blocks(self.cfg.ssd.block_bytes());
        let slba = NvmeCommand::ndp_slba(base, plan.request_id, self.cfg.ndp.table_align);
        let qid = self.ops[&id].qid;
        self.set_phase(id, Phase::NdpAwaitRead(plan));
        let cid = self.alloc_cid(qid);
        self.pending_cmd[qid as usize].insert(cid, (id, 0));
        self.submit_cmd(now, qid, NvmeCommand::ndp_read(cid, slba, nlb));
    }

    fn ndp_on_read_done(&mut self, now: SimTime, id: OpId, plan: NdpPlan, data: Vec<u8>) {
        self.trace_phase(id, "ndp:read", now);
        let bytes = plan.cold_cfg.result_bytes();
        let dur = SimDuration::from_ns(self.host().op_overhead_ns) + self.dram_time(bytes as f64);
        self.set_phase(id, Phase::NdpMerge(plan, data));
        self.charge(id, dur);
    }

    fn ndp_merge_done(&mut self, now: SimTime, id: OpId, plan: NdpPlan, data: Vec<u8>) {
        // Device partial sums fold straight into the flat accumulator —
        // no intermediate nested vectors.
        let op = self.ops.get_mut(&id).expect("op");
        SlsConfig::accumulate_results(&data, op.outputs.as_mut_slice());
        self.finish_op(now, id, Phase::NdpMerge(plan, data));
    }

    // ----- shared plumbing -----

    fn alloc_cid(&mut self, qid: u16) -> u16 {
        let c = self.next_cid[qid as usize];
        self.next_cid[qid as usize] = c.wrapping_add(1);
        c
    }

    fn submit_cmd(&mut self, now: SimTime, qid: u16, cmd: NvmeCommand) {
        let Self { dev, q, .. } = self;
        dev.queue(qid).submit(cmd).expect("queue depth respected");
        dev.doorbell(now, qid, &mut |d, e| q.push_after(d, SysEvent::Dev(e)));
    }

    fn poll_completions(&mut self, now: SimTime) {
        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        for qid in 0..self.cfg.ssd.io_queues as u16 {
            while let Some(c) = self.dev.queue(qid).poll() {
                completions.push((qid, c));
            }
        }
        for (qid, c) in completions.drain(..) {
            let (id, idx) = self.pending_cmd[qid as usize]
                .remove(&c.cid)
                .expect("completion for unknown command");
            let op = self.ops.get_mut(&id).expect("op exists");
            if c.status != NvmeStatus::Success {
                // The first device-side failure poisons the op: it issues
                // no further I/O and its result carries the error.
                op.failed.get_or_insert(DeviceError::from_status(c.status));
            }
            let failed = op.failed.is_some();
            match (std::mem::take(&mut op.phase), c.data) {
                (Phase::BaseIo(io), data) => {
                    let pages = data.map(|data| match data {
                        CmdData::Pages(pages) => pages,
                        CmdData::Flat(_) => {
                            unreachable!("a conventional read completes with page images")
                        }
                    });
                    self.baseline_on_read(now, id, idx, pages, io);
                }
                // An NDP op has a single command in flight, so a failed one
                // finishes (with the error) at once.
                (phase @ (Phase::NdpAwaitWrite(_) | Phase::NdpAwaitRead(_)), _) if failed => {
                    self.finish_op(now, id, phase)
                }
                (Phase::NdpAwaitWrite(plan), _) => self.ndp_on_write_done(now, id, plan),
                (Phase::NdpAwaitRead(plan), Some(CmdData::Flat(data))) => {
                    self.ndp_on_read_done(now, id, plan, data)
                }
                (phase, _) => unreachable!("completion in unexpected phase {phase:?}"),
            }
        }
        self.completions = completions;
    }

    fn recycle_pairs(&mut self, mut pairs: Vec<(u64, u32)>) {
        if self.pair_pool.len() < PAIR_POOL_CAP {
            pairs.clear();
            self.pair_pool.push(pairs);
        }
    }

    /// Hands the buffers a finished op's last phase holds back to their
    /// pools: the baseline planner buffers, or the NDP pair lists and the
    /// device's result block.
    fn release(&mut self, last: Phase) {
        match last {
            Phase::BaseIo(io) => self.baseio_pool.push(io.bufs),
            Phase::NdpHotGather(plan) | Phase::NdpAwaitWrite(plan) | Phase::NdpAwaitRead(plan) => {
                self.recycle_pairs(plan.cold_cfg.pairs);
                self.recycle_pairs(plan.hot_pairs);
            }
            Phase::NdpMerge(plan, data) => {
                self.dev.recycle_buffer(CmdData::Flat(data));
                self.release(Phase::NdpAwaitRead(plan));
            }
            Phase::Pending | Phase::Compute | Phase::Prep(_) => {}
        }
    }

    /// Completes `id`, whose `last` phase (taken out of it) is released.
    fn finish_op(&mut self, now: SimTime, id: OpId, last: Phase) {
        self.release(last);
        let op = self.ops.remove(&id).expect("op exists");
        if self.tracer.enabled() && op.span.is_some() {
            // Tail phase: whatever ran since the last phase span ended.
            // For a failed op it covers the abort drain, which the
            // `failed` argument on the op span flags. An `op:compute`
            // window is its worker's whole hold and declares its pool width.
            let workers = (
                "workers",
                self.pool_mut(op.kind.pool()).workers.width() as u64,
            );
            let (tail, label, (key, val)) = match &op.kind {
                OpKind::HostCompute { .. } => ("op:compute", "host", workers),
                OpKind::Sls { path, .. } => match path {
                    SlsPath::Dram => ("op:compute", path.name(), workers),
                    SlsPath::Baseline(_) => ("base:io", path.name(), ("", 0)),
                    SlsPath::Ndp(_) => ("ndp:merge", path.name(), ("", 0)),
                },
            };
            if now > op.phase_started {
                self.tracer
                    .span_arg(tail, op.phase_started, now, op.span, key, val);
            }
            self.tracer.emit(
                op.span,
                "op",
                op.submitted,
                now,
                op.span_parent,
                "failed",
                op.failed.is_some() as u64,
                label,
            );
        }
        let outputs = match &op.kind {
            OpKind::HostCompute { .. } => None,
            _ => Some(op.outputs),
        };
        self.results.insert(
            id,
            OpResult {
                outputs,
                error: op.failed,
                submitted: op.submitted,
                started: op.started,
                finished: now,
            },
        );
        // Release the worker.
        let pool_kind = op.kind.pool();
        if let Some(w) = op.worker {
            self.pool_mut(pool_kind).workers.release(now, w);
        }
        // Wake dependents.
        for dep in op.dependents {
            let d = self.ops.get_mut(&dep).expect("dependent exists");
            d.deps_left -= 1;
            if d.deps_left == 0 {
                let p = d.kind.pool();
                self.pool_mut(p).ready.push_back(dep);
                self.dispatch(p);
            }
        }
        if let OpKind::Sls { batch, .. } = op.kind {
            if self.batch_loans > 0 {
                self.batch_loans -= 1;
                self.batch_pool.push(batch.into_buffer());
            }
        }
        self.dispatch(pool_kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecSsdConfig;
    use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};

    fn sys_with_table(rows: u64) -> (System, TableId) {
        let mut sys = System::new(RecSsdConfig::small());
        let spec = TableSpec::new(rows, 8, Quantization::F32);
        let table = sys.add_table(TableImage::new(
            EmbeddingTable::procedural(spec, 1),
            PageLayout::Spread,
            16 * 1024,
        ));
        (sys, table)
    }

    #[test]
    fn dependency_on_already_finished_op_starts_immediately() {
        let (mut sys, table) = sys_with_table(100);
        let batch = LookupBatch::new(vec![vec![1, 2]]);
        let a = sys.submit(OpKind::dram_sls(table, batch.clone()));
        sys.run_until_idle();
        // `a` is finished; a dependent submitted now must not deadlock.
        let b = sys.submit_after(OpKind::dram_sls(table, batch), &[a]);
        sys.run_until_idle();
        assert!(sys.result(b).finished >= sys.result(a).finished);
    }

    #[test]
    fn diamond_dependencies_resolve_in_order() {
        let (mut sys, table) = sys_with_table(100);
        let batch = LookupBatch::new(vec![vec![3]]);
        let root = sys.submit(OpKind::dram_sls(table, batch.clone()));
        let left = sys.submit_after(OpKind::host_compute(1e6, 1e4), &[root]);
        let right = sys.submit_after(OpKind::host_compute(2e6, 1e4), &[root]);
        let join = sys.submit_after(OpKind::dram_sls(table, batch), &[left, right]);
        sys.run_until_idle();
        let finish = |op: OpId| sys.result(op).finished;
        assert!(finish(left) >= finish(root));
        assert!(finish(right) >= finish(root));
        assert!(sys.result(join).started >= finish(left).max(finish(right)));
    }

    #[test]
    fn op_latency_includes_worker_queueing_but_service_does_not() {
        let mut cfg = RecSsdConfig::small();
        cfg.host.nn_workers = 1;
        let mut sys = System::new(cfg);
        let a = sys.submit(OpKind::host_compute(1e9, 1e6));
        let b = sys.submit(OpKind::host_compute(1e9, 1e6));
        sys.run_until_idle();
        let rb = sys.result(b);
        assert!(rb.latency() > rb.service_time(), "b queued behind a");
        assert_eq!(rb.started, sys.result(a).finished);
    }

    #[test]
    fn host_compute_time_follows_the_roofline() {
        let mut sys = System::new(RecSsdConfig::small());
        let host = sys.config().host.clone();
        // Compute-bound op: flops dominate.
        let flops = 1e9;
        let op = sys.submit(OpKind::host_compute(flops, 1.0));
        sys.run_until_idle();
        let want = SimDuration::from_ns(host.op_overhead_ns)
            + SimDuration::from_secs_f64(flops / host.gflops);
        assert_eq!(sys.result(op).service_time(), want);
        // Memory-bound op: bytes dominate.
        let bytes = 1e9;
        let op = sys.submit(OpKind::host_compute(1.0, bytes));
        sys.run_until_idle();
        let want = SimDuration::from_ns(host.op_overhead_ns)
            + SimDuration::from_secs_f64(bytes / host.dram_bytes_per_sec);
        assert_eq!(sys.result(op).service_time(), want);
    }

    #[test]
    #[should_panic(expected = "not finished")]
    fn result_before_completion_panics() {
        let (mut sys, table) = sys_with_table(50);
        let op = sys.submit(OpKind::dram_sls(table, LookupBatch::new(vec![vec![1]])));
        let _ = sys.result(op);
    }

    #[test]
    #[should_panic(expected = "within the queue depth")]
    fn excessive_io_concurrency_rejected() {
        let (mut sys, table) = sys_with_table(50);
        let opts = SlsOptions {
            io_concurrency: 10_000,
            ..SlsOptions::default()
        };
        sys.submit(OpKind::baseline_sls(
            table,
            LookupBatch::new(vec![vec![1]]),
            opts,
        ));
        sys.run_until_idle();
    }

    #[test]
    fn baseline_coalesces_contiguous_pages_into_multiblock_reads() {
        // 16 sequential rows on a spread layout occupy 16 contiguous
        // pages and coalesce into a single read; pages 40 and 41 share a
        // second command (the 24-page gap exceeds the bridge limit) and
        // the 18-page gap to 60 forces a third. The result still
        // bit-matches the DRAM reference.
        let (mut sys, table) = sys_with_table(100);
        let batch = LookupBatch::new(vec![(0..16).collect(), vec![40, 41, 60]]);
        let reference = sys.submit(OpKind::dram_sls(table, batch.clone()));
        sys.run_until_idle();
        let before = sys.device().stats().read_commands.get();
        let op = sys.submit(OpKind::baseline_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        let issued = sys.device().stats().read_commands.get() - before;
        assert_eq!(issued, 3, "contiguous runs must coalesce");
        let got = sys.take_result(op).outputs.expect("SLS outputs");
        let want = sys.result(reference).outputs.as_ref().expect("reference");
        assert_eq!(&got, want, "coalesced baseline diverged from DRAM path");
    }

    #[test]
    fn coalesce_limit_one_disables_coalescing() {
        let mut cfg = RecSsdConfig::small();
        cfg.host.read_coalesce_limit = 1;
        let mut sys = System::new(cfg);
        let spec = TableSpec::new(64, 8, Quantization::F32);
        let table = sys.add_table(TableImage::new(
            EmbeddingTable::procedural(spec, 1),
            PageLayout::Spread,
            16 * 1024,
        ));
        let batch = LookupBatch::new(vec![(0..10).collect()]);
        sys.submit(OpKind::baseline_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        assert_eq!(sys.device().stats().read_commands.get(), 10);
    }

    #[test]
    fn uncorrectable_faults_surface_as_typed_errors() {
        let (mut sys, table) = sys_with_table(100);
        let mut fault = crate::FaultConfig::quiet(7);
        fault.uncorrectable_rate = 1.0;
        sys.set_fault_plan(Some(crate::FaultPlan::new(fault)));
        let batch = LookupBatch::new(vec![vec![1, 2, 50]]);
        let base = sys.submit(OpKind::baseline_sls(
            table,
            batch.clone(),
            SlsOptions::default(),
        ));
        let ndp = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        assert_eq!(sys.result(base).error, Some(crate::DeviceError::Media));
        assert_eq!(sys.result(ndp).error, Some(crate::DeviceError::Media));
        assert!(
            sys.fault_stats()
                .expect("plan installed")
                .uncorrectable
                .get()
                > 0
        );
    }

    /// A baseline operator poisoned by one media error drains through two
    /// late exits: a read that completes successfully after the poison,
    /// and an accumulate charge that was in flight when the poison landed.
    /// Both must drop their pages without folding them, the operator must
    /// still surface the error, and at idle every page image the flash
    /// array handed out is back in its pool or in the FTL page cache.
    #[test]
    fn poisoned_baseline_ops_drain_through_both_late_exits() {
        // A slow host driver: each command's accumulate charge outlasts
        // the gap between completions, so a poison can land inside one.
        let mut cfg = RecSsdConfig::small();
        cfg.host.sw_cmd_ns = 500_000;
        let mut sys = System::new(cfg);
        let rows = 480u64;
        let table = sys.add_table(TableImage::new(
            EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 1),
            PageLayout::Spread,
            16 * 1024,
        ));
        let mut fault = crate::FaultConfig::quiet(11);
        fault.uncorrectable_rate = 0.03;
        sys.set_fault_plan(Some(crate::FaultPlan::new(fault)));
        let opts = SlsOptions {
            io_concurrency: 4,
            ..SlsOptions::default()
        };
        let mut rng = recssd_sim::rng::Xoshiro256::seed_from(77);
        // Live commands of operators that are already poisoned.
        let poisoned_pending = |sys: &System| {
            (sys.pending_cmd.iter().flat_map(IdMap::values))
                .filter(|(id, _)| sys.ops[id].failed.is_some())
                .count()
        };
        let (mut late_reads, mut late_accums, mut failed_ops) = (0, 0, 0);
        for _ in 0..24 {
            // Clusters of near-adjacent rows: on the spread layout each is
            // one bridged multi-page read, a dozen per operator.
            let ids: Vec<u64> = (0..12)
                .flat_map(|_| {
                    let start = rng.gen_range(0..rows - 8);
                    [start, start + 1, start + 3, start + 4]
                })
                .collect();
            let ops: Vec<OpId> = (0..2)
                .map(|_| {
                    let batch = LookupBatch::new(vec![ids.clone()]);
                    sys.submit(OpKind::baseline_sls(table, batch, opts))
                })
                .collect();
            // The event loop of `run_until_idle`, watching each exit. A
            // conventional read completes successfully only when its result
            // DMA ends (a PCIe event) and fails only on a flash outcome, so
            // a poisoned operator's command retired by a PCIe event was a
            // late success. The only worker event of a poisoned baseline
            // operator is the end of an accumulate charge.
            while let Some((now, ev)) = sys.q.pop() {
                match ev {
                    SysEvent::Dev(SsdEvent::Pcie(_)) => {
                        let before = poisoned_pending(&sys);
                        sys.handle_event(now, ev);
                        late_reads += before - poisoned_pending(&sys);
                    }
                    SysEvent::Worker(id) => {
                        late_accums += sys.ops[&id].failed.is_some() as usize;
                        sys.handle_event(now, ev);
                    }
                    SysEvent::Dev(SsdEvent::Ftl(_)) => sys.handle_event(now, ev),
                }
            }
            assert!(sys.ops.is_empty() && sys.dev.idle());
            for op in ops {
                let r = sys.take_result(op);
                if let Some(err) = r.error {
                    assert_eq!(err, crate::DeviceError::Media);
                    failed_ops += 1;
                }
                sys.recycle_outputs(r.outputs.expect("an SLS operator has outputs"));
            }
        }
        assert!(failed_ops > 0, "no operator was poisoned");
        assert!(late_reads > 0, "no read succeeded after a poison");
        assert!(late_accums > 0, "no accumulate charge ended after a poison");
        let ftl = sys.device().ftl();
        assert_eq!(ftl.flash().page_images_out(), ftl.cached_pages());
    }

    #[test]
    fn transient_faults_recover_without_surfacing() {
        let (mut sys, table) = sys_with_table(100);
        let batch = LookupBatch::new(vec![vec![1, 2, 50], vec![7, 7]]);
        let reference = sys.submit(OpKind::dram_sls(table, batch.clone()));
        let clean = sys.submit(OpKind::baseline_sls(
            table,
            batch.clone(),
            SlsOptions::default(),
        ));
        sys.run_until_idle();
        let clean_latency = sys.result(clean).service_time();

        let mut fault = crate::FaultConfig::quiet(7);
        fault.transient_read_error_rate = 1.0;
        sys.set_fault_plan(Some(crate::FaultPlan::new(fault)));
        sys.device_mut().ftl_mut().drop_caches();
        let base = sys.submit(OpKind::baseline_sls(
            table,
            batch.clone(),
            SlsOptions::default(),
        ));
        let ndp = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        let want = sys.result(reference).outputs.as_ref().expect("reference");
        for op in [base, ndp] {
            let r = sys.result(op);
            assert!(r.is_ok(), "transient faults must be absorbed by ECC retry");
            assert_eq!(r.outputs.as_ref().expect("outputs"), want);
        }
        assert!(
            sys.result(base).service_time() > clean_latency,
            "ECC retries must cost time"
        );
    }

    #[test]
    fn sls_workers_map_to_distinct_queues() {
        // Eight SLS workers, eight I/O queues: concurrent baseline ops use
        // different queue pairs (the §4.2 worker-to-queue matching).
        let (mut sys, table) = sys_with_table(500);
        let batch = LookupBatch::new(vec![(0..32).map(|i| i * 13 % 500).collect()]);
        let ops: Vec<OpId> = (0..4)
            .map(|_| {
                sys.submit(OpKind::baseline_sls(
                    table,
                    batch.clone(),
                    SlsOptions::default(),
                ))
            })
            .collect();
        sys.run_until_idle();
        // All complete with identical outputs (same batch).
        let first = sys.result(ops[0]).outputs.clone();
        for &op in &ops[1..] {
            assert_eq!(sys.result(op).outputs, first);
        }
    }
}
