//! The sharded serving runtime: N simulated systems on one timeline.
//!
//! The runtime owns one [`System`] per shard and keeps them on a single
//! virtual clock. The device shards are `0..n`; the host DRAM tier, once a
//! placed table pins rows, is shard `n` of the same vector and is served
//! exactly like them. Shards are *pipelined servers*: up to
//! [`ServingConfig::depth`] operators are in flight on one device at a
//! time, so host-side NVMe submission, FTL service and flash channel/die
//! occupancy overlap across requests instead of draining between
//! operators (the RecSSD/RecNMP point that SLS throughput comes from
//! saturating the device's internal parallelism). The co-simulation
//! works by bounded stepping: [`ServingRuntime::step`] takes the earliest
//! of the runtime's events and each shard's next device event
//! ([`System::next_event_time`]), a shard's system is only ever advanced
//! to the global instant with [`System::run_until`], and completed
//! operators are harvested by polling [`System::try_take_result`].
//!
//! A request's lifecycle, kept in one record per request id (arriving,
//! serving, or expired with lookups still owed):
//!
//! 1. [`ServingRuntime::submit_at`] schedules the arrival; at the arrival
//!    instant the batch splits into per-shard sub-batches of local rows
//!    ([`crate::ShardMap`]) under the table's active plan — one of its
//!    two A/B plan slots; a refresh binds the other.
//! 2. Every sub-batch enters flight through one `queue_sub` — at
//!    admission, as plan-migration work, or after a retry's backoff — and
//!    each shard queue dispatches per the [`SchedulePolicy`] — FIFO, or
//!    micro-batching that coalesces queued sub-batches targeting the same
//!    table and path into one device operator — whenever the shard has a
//!    free operator slot.
//! 3. Every sub-batch leaves flight through one `retire_sub`, once its
//!    operator succeeds or its failure exhausts the retry budget: merged
//!    (its partial [`SlsOutput`] folds into the request's accumulator
//!    through the fused accumulate path — exact for the grid values of
//!    procedural tables, so sharded results bit-match the unsharded
//!    reference regardless of completion interleaving), late (merged after
//!    the deadline served its request, and discarded), dropped (its slots
//!    flagged missing) or migration (a plan-migration chunk, discarded).
//! 4. When the last sub-batch retires, or the deadline fires first, the
//!    request completes through one `complete_request`, and
//!    [`ServingRuntime::step`] hands it out: queue/service/
//!    end-to-end latencies are recorded into the HDR-style histograms of
//!    [`ServingStats`], and per-shard operator occupancy plus flash
//!    channel utilisation are tracked so pipelining wins are visible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use recssd::{
    FaultConfig, FaultPlan, LookupBatch, OpId, OpKind, OpResult, RecSsdConfig, SlsOptions,
    SlsOutput, System,
};
use recssd_embedding::{sls_reference_into, EmbeddingTable, PageLayout, TableImage};
use recssd_obs::profile::WallPhaseReport;
use recssd_obs::trace::track;
use recssd_obs::{SpanId, SpanRec, TraceSink, Tracer, WallPhase, WallProfile};
use recssd_placement::TablePlacement;
use recssd_sim::rng::mix64;
use recssd_sim::stats::HitStats;
use recssd_sim::{EventQueue, IdMap, SimDuration, SimTime, Slots};

use crate::adaptive::{
    fold_decision, hit_mass, select_hot_set, AdaptiveState, ADAPTIVE_WEIGHT, DRIFT_FLUSH_DECAY,
    DRIFT_RESET_DROP,
};
use crate::shard::{push_row, split_batch, Routing, SplitStage, SubBatch, SubOwner};
use crate::{SchedulePolicy, ServingStats, ShardMap, SlsPath};

/// Largest number of promoted rows carried by one migration operator —
/// migration work is chunked so it pipelines on the shard queues instead
/// of monopolising a device with one giant gather.
const MIGRATION_CHUNK_ROWS: usize = 64;

/// Most recycled buffers a free list keeps (request accumulators and
/// pending counts, each shard's sub-batch buffers).
const POOL_CAP: usize = 4096;

/// Identifier of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Identifier of a table registered with the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServedTableId(pub usize);

/// Configuration of the serving runtime.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Number of device shards (each a full simulated [`System`]).
    pub shards: usize,
    /// Operator queue depth per shard: how many device operators the
    /// runtime keeps in flight on one shard simultaneously. Depth 1 is
    /// the classic drain-between-operators regime; deeper pipelines
    /// overlap NVMe submission, firmware service and flash channel/die
    /// occupancy across operators.
    pub depth: usize,
    /// Per-shard system configuration.
    pub system: RecSsdConfig,
    /// Shard-queue scheduling policy.
    pub policy: SchedulePolicy,
    /// On-SSD layout of every registered table.
    pub layout: PageLayout,
}

impl ServingConfig {
    /// A small-geometry runtime with the full eight channels per shard
    /// and a depth-1 (unpipelined) operator queue.
    pub fn small_wide(shards: usize, policy: SchedulePolicy) -> Self {
        ServingConfig {
            shards,
            depth: 1,
            system: RecSsdConfig::small_wide(),
            policy,
            layout: PageLayout::Spread,
        }
    }

    /// Sets the per-shard operator queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be at least 1");
        self.depth = depth;
        self
    }
}

/// Compatibility block: three names with no behaviour behind them. There
/// is one stepper (README "Why there is one stepper"), but `benchmark/`,
/// which a code change may not edit, still compiles against `ExecMode`,
/// [`ServingConfig::with_exec`] and [`ServingRuntime::sync_horizon`];
/// their last caller is `benchmark/src/probes.rs::parallel_ratio`.
/// Delete this block together with that probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The stepper.
    Sequential,
    /// Accepted and ignored: runs exactly as [`ExecMode::Sequential`].
    Parallel(usize),
}

impl ServingConfig {
    /// Accepted and ignored (see [`ExecMode`]).
    pub fn with_exec(self, _exec: ExecMode) -> Self {
        self
    }
}

impl ServingRuntime {
    /// The host's fixed cost of issuing one operator (`sw_cmd_ns +
    /// op_overhead_ns`), which `parallel_ratio` uses as its think time.
    pub fn sync_horizon(&self) -> SimDuration {
        let host = &self.shards[0].sys.config().host;
        SimDuration::from_ns(host.sw_cmd_ns + host.op_overhead_ns)
    }
}

/// Host-side recovery policy for device faults: per-sub-batch retry
/// budget with simulated-time exponential backoff, NDP→baseline path
/// fallback, an optional per-request deadline, and a per-shard circuit
/// breaker. Inert unless faults are injected (a fault-free run never
/// consults the retry or deadline machinery, so enabling the default
/// policy does not perturb the timeline).
#[derive(Debug, Clone, Copy)]
pub struct FaultPolicy {
    /// Failed sub-batch re-dispatches before its rows are given up on
    /// (the request then completes degraded, with the loss flagged).
    pub max_retries: u32,
    /// First-retry backoff; doubles per attempt (shift capped at 16).
    pub backoff_base: SimDuration,
    /// Hard per-request latency bound: when it expires the request is
    /// served immediately with whatever partials have merged, missing
    /// rows flagged. `None` waits for the retry budget to resolve.
    pub deadline: Option<SimDuration>,
    /// Attempt number from which a failing NDP sub-batch is re-issued on
    /// the conventional baseline path instead.
    pub fallback_after: u32,
    /// Sliding window (device operators) over which the breaker measures
    /// a shard's error rate.
    pub breaker_window: u32,
    /// Error fraction of the window that trips the breaker.
    pub breaker_threshold: f64,
    /// How long a tripped breaker redirects NDP work to the baseline
    /// path before letting one probe operator through.
    pub breaker_cooldown: SimDuration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 2,
            backoff_base: SimDuration::from_us(20),
            deadline: None,
            fallback_after: 2,
            breaker_window: 16,
            breaker_threshold: 0.5,
            breaker_cooldown: SimDuration::from_ms(1),
        }
    }
}

/// A bookkeeping invariant violation surfaced by [`ServingRuntime::step`]
/// instead of a panic: the simulated fleet state went inconsistent (an
/// event referenced a request the runtime does not know). These indicate
/// a runtime bug, not an injected device fault — injected faults are
/// handled by the retry/fallback/degradation machinery and never surface
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingError {
    /// An arrival event fired for a request with no pending submission.
    MissingArrival(u64),
    /// A completion event fired for a request that is not in flight.
    UnknownCompletion(u64),
    /// A request completed without any sub-batch ever starting service.
    ServedBeforeStart(u64),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::MissingArrival(r) => {
                write!(
                    f,
                    "arrival event for request {r} with no pending submission"
                )
            }
            ServingError::UnknownCompletion(r) => {
                write!(f, "completion event for request {r} that is not in flight")
            }
            ServingError::ServedBeforeStart(r) => {
                write!(f, "request {r} completed without starting service")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// A finished request, handed out by [`ServingRuntime::step`].
#[derive(Debug)]
pub struct CompletedRequest {
    /// The request's id.
    pub id: RequestId,
    /// Caller-supplied client tag (closed-loop generators key on it).
    pub client: u64,
    /// The served table.
    pub table: ServedTableId,
    /// When the request arrived.
    pub arrival: SimTime,
    /// When the last shard partial was merged.
    pub finish: SimTime,
    /// Arrival → first sub-batch began service.
    pub queue: SimDuration,
    /// First service start → completion.
    pub service: SimDuration,
    /// The original batch (global rows), for verification.
    pub batch: LookupBatch,
    /// The merged output vectors. Slots flagged in
    /// [`CompletedRequest::missing_slots`] hold partial (or zero)
    /// accumulations and must not be consumed as results.
    pub outputs: SlsOutput,
    /// Lookups that never merged: their sub-batches exhausted the retry
    /// budget or were still in flight when the deadline fired. Zero for
    /// a fully served request.
    pub missing_lookups: u64,
    /// Per output slot: `true` when at least one contribution is missing
    /// (empty when the request is fully served).
    pub missing_slots: Vec<bool>,
}

impl CompletedRequest {
    /// End-to-end latency.
    pub fn e2e(&self) -> SimDuration {
        self.queue + self.service
    }

    /// `true` when the request was served with missing rows (flagged
    /// degradation, never silently wrong bits).
    pub fn is_degraded(&self) -> bool {
        self.missing_lookups > 0
    }
}

/// A request as submitted: who sent it, to which table, on which path
/// (its attribution key), and its batch.
#[derive(Debug)]
struct Submitted {
    client: u64,
    table: usize,
    batch: LookupBatch,
    path: SlsPath,
}

/// An admitted request whose sub-batches are in flight.
#[derive(Debug)]
struct Inflight {
    submitted: Submitted,
    /// Request trace span, allocated at admission and emitted at
    /// completion (`SpanId::NONE` untraced).
    span: SpanId,
    arrival: SimTime,
    first_start: Option<SimTime>,
    finish: SimTime,
    acc: SlsOutput,
    /// Per output slot: sub-batches that have not merged a contribution.
    /// A dropped sub-batch leaves its counts standing, so at completion
    /// a slot is missing exactly when its count is above zero.
    slot_pending: Vec<u32>,
    /// Lookups dropped so far.
    missing_lookups: u64,
    /// Lookups whose sub-batch has not retired; the request is done when
    /// this reaches 0 (every sub-batch carries at least one lookup).
    pending_lookups: u64,
}

/// A request's one record, from submission until its last sub-batch
/// retires.
#[derive(Debug)]
enum Request {
    /// Submitted; the arrival event has not fired yet. Splitting happens
    /// *at the arrival instant* under the then-active plan — the property
    /// that makes "old plan serves in-flight work, new plan takes new
    /// admissions" well-defined on the simulated timeline.
    Arriving(Submitted),
    /// Admitted, sub-batches in flight.
    Serving(Inflight),
    /// Served degraded by its deadline while sub-batches were still in
    /// flight: the lookups they still owe. Those stragglers retire here,
    /// discarded.
    Expired { owed: u64 },
}

impl Inflight {
    /// Folds a device attempt that started at `at` into the request's
    /// first service start.
    fn note_start(&mut self, at: SimTime) {
        self.first_start = Some(self.first_start.map_or(at, |t| t.min(at)));
    }
}

/// How a sub-batch's last device operator resolved it.
#[derive(Debug, Clone, Copy)]
enum Outcome<'a> {
    /// Served: its partial sums are `outputs`' rows from `offset` on.
    Served {
        outputs: &'a SlsOutput,
        offset: usize,
    },
    /// Given up on: its rows are missing.
    Dropped,
}

/// A device operator in flight on a shard, awaiting harvest. The merged
/// operator keeps its component sub-batches intact (their slice of the
/// merged output block is implied by per-output counts, in order) so a
/// failed operator can re-queue each component for retry.
#[derive(Debug)]
struct InflightOp {
    op: OpId,
    /// The shard's operator slot the operator holds.
    slot: usize,
    subs: Vec<SubBatch>,
}

/// One simulated system on the runtime's clock, visited by
/// [`ServingRuntime::step`] at each of its own events' instants.
#[derive(Debug)]
struct Shard {
    sys: System,
    /// The trace pid of this shard's spans (see [`track`]): `i + 1` for
    /// device shard `i`, [`track::PID_TIER`] for the DRAM tier.
    pid: u32,
    /// Operators submitted to `sys` and not yet harvested.
    inflight: Vec<InflightOp>,
    queue: VecDeque<SubBatch>,
    /// Retired sub-batches' buffers, for the next split onto this shard.
    free_ids: Vec<Vec<u64>>,
    /// Harvested operators' (emptied) sub-batch lists.
    free_subs: Vec<Vec<SubBatch>>,
    /// The [`ServingConfig::depth`] operator slots, each held from
    /// dispatch to the operator's finish: the occupancy telemetry.
    slots: Slots,
    /// Circuit breaker over this shard's operator outcomes.
    breaker: Breaker,
}

impl Shard {
    fn new(cfg: &RecSsdConfig, depth: usize, pid: u32) -> Self {
        Shard {
            sys: System::new(cfg.clone()),
            pid,
            inflight: Vec::new(),
            queue: VecDeque::new(),
            free_ids: Vec::new(),
            free_subs: Vec::new(),
            slots: Slots::new(depth),
            breaker: Breaker::new(),
        }
    }
}

/// Per-shard circuit breaker over harvested operator outcomes. Closed
/// counts errors over a sliding window of recent operators; crossing the
/// policy threshold opens the breaker, which redirects NDP dispatches to
/// the baseline path for the cooldown. After the cooldown one NDP probe
/// is let through (half-open); the next harvested outcome then closes or
/// re-opens it. (The resolving outcome may belong to an operator
/// dispatched before the trip — a deliberate simplification; a wrong
/// early close just re-trips on the next window.)
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    /// Most recent operator outcomes (`true` = error), bounded by the
    /// policy window.
    recent: VecDeque<bool>,
    errs: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            recent: VecDeque::new(),
            errs: 0,
        }
    }

    /// Folds one harvested operator outcome in; returns `true` when this
    /// outcome trips the breaker (Closed/HalfOpen → Open).
    fn record(&mut self, now: SimTime, error: bool, policy: &FaultPolicy) -> bool {
        match self.state {
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen => {
                if error {
                    self.state = BreakerState::Open {
                        until: now + policy.breaker_cooldown,
                    };
                    true
                } else {
                    self.state = BreakerState::Closed;
                    self.recent.clear();
                    self.errs = 0;
                    false
                }
            }
            BreakerState::Closed => {
                self.recent.push_back(error);
                if error {
                    self.errs += 1;
                }
                while self.recent.len() > policy.breaker_window as usize {
                    if self.recent.pop_front() == Some(true) {
                        self.errs -= 1;
                    }
                }
                let trip = self.errs > 0
                    && f64::from(self.errs)
                        >= policy.breaker_threshold * f64::from(policy.breaker_window);
                if trip {
                    self.state = BreakerState::Open {
                        until: now + policy.breaker_cooldown,
                    };
                    self.recent.clear();
                    self.errs = 0;
                }
                trip
            }
        }
    }

    /// Gates an NDP dispatch: closed always allows; open redirects until
    /// the cooldown elapses, then lets exactly one probe through.
    fn allows_ndp(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// The runtime's own events. Device work is not one: each shard's system
/// keeps its own queue, whose head [`ServingRuntime::step`] reads
/// directly. Nor is request completion: finished requests enter a
/// canonical ready-queue ordered by `(finish, id)` (see
/// [`ServingRuntime::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival(u64),
    /// Re-enqueue a parked (failed) sub-batch after its backoff.
    Retry(u64),
    /// A request's latency deadline: serve it degraded if incomplete.
    Deadline(u64),
}

/// One of a served table's two A/B plan slots: the routing generation
/// bound there — how rows split between the tier and the device shards —
/// and the device tables its sub-batches address. A refresh re-binds the
/// slot beside the active one, so the outgoing plan keeps serving its
/// in-flight work untouched.
#[derive(Debug, Default)]
struct PlanState {
    /// Placement routing (hot set + packed storage order); `None` for
    /// tables registered without a placement.
    routing: Option<Routing>,
    /// Hot rows (global ids) of this plan, for delta computation.
    hot_rows: Vec<u64>,
    /// The table id bound on each shard index: every device shard, then
    /// the tier once a plan bound to this slot pinned rows. Re-binding
    /// the slot replaces the images behind these ids, so they never
    /// change.
    bound: Vec<recssd::TableId>,
    /// Sub-batches split under this slot's plan and not yet retired. The
    /// slot can only be re-bound once this is zero, so at most one plan
    /// per slot ever has work in flight.
    inflight_subs: usize,
}

impl PlanState {
    /// `true` when this plan pins `row` in the DRAM tier.
    fn is_hot(&self, row: u64) -> bool {
        (self.routing.as_ref()).is_some_and(|r| r.hot_index[row as usize] != crate::shard::COLD)
    }

    /// Drops the O(rows) routing state once the plan stops admitting:
    /// `hot_index`/`storage`/`hot_rows` are only consulted at split time,
    /// so a deactivated plan keeps just its bound tables (needed to drain
    /// queued work).
    fn retire(&mut self) {
        if let Some(r) = self.routing.as_mut() {
            r.hot_index = Vec::new();
            r.storage = Vec::new();
        }
        self.hot_rows = Vec::new();
    }
}

/// A refresh whose migration work is still in flight. The new plan is
/// bound in the slot beside the active one, but admissions keep routing
/// under the old plan until `remaining` hits zero.
#[derive(Debug)]
struct PendingPlan {
    remaining: usize,
    promoted: u64,
    demoted: u64,
}

#[derive(Debug)]
struct ServedTable {
    /// Full-table contents (procedural tables make this cheap), kept for
    /// reference verification.
    table: EmbeddingTable,
    map: ShardMap,
    /// The two A/B plan slots; in-flight sub-batches pin theirs by
    /// index.
    plans: [PlanState; 2],
    /// The slot new admissions split under; a pending plan is always in
    /// the other one.
    active: usize,
    /// Refresh awaiting migration completion, if any.
    pending: Option<PendingPlan>,
    /// Routing generations bound so far: 1 plus the accepted refreshes.
    generations: usize,
}

/// Configuration of the runtime's *online adaptation loop*: feed every
/// admitted request into a decayed [`recssd_placement::FreqProfiler`],
/// and every `epoch_requests` admissions rebuild the placement under a
/// global DRAM budget split by marginal hit rate, refreshing any table
/// whose hot set moved by at least `min_delta_rows`.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    /// Admissions between re-planning passes.
    pub epoch_requests: u64,
    /// EWMA factor applied to the profiler at each epoch boundary
    /// (`0` = only the last epoch counts, `1` = never forget).
    pub decay: f64,
    /// Global DRAM row budget split across tables by marginal hit rate.
    pub budget_rows: usize,
    /// Hysteresis: refresh a table only when the rebuilt hot set would
    /// absorb at least this much more of the *currently profiled* traffic
    /// than the active one (fraction of profiled accesses). Swapping
    /// equal-heat tail rows gains nothing and still pays migration, so
    /// gain-based hysteresis kills plan thrash without dulling the
    /// response to genuine drift.
    pub min_hit_gain: f64,
}

/// The sharded serving runtime. See the [crate docs](crate) for the
/// architecture.
#[derive(Debug)]
pub struct ServingRuntime {
    policy: SchedulePolicy,
    /// Finished requests awaiting delivery, keyed `(finish_ns, id)` —
    /// the canonical order [`ServingRuntime::step`] hands them out in.
    ready: BinaryHeap<Reverse<(u64, u64)>>,
    layout: PageLayout,
    /// The device shards `0..devices`, then — created by the first
    /// placed table with a non-empty hot set — the host DRAM tier at
    /// index `devices`, whose operators are always [`SlsPath::Dram`]
    /// gathers over the pinned hot rows.
    shards: Vec<Shard>,
    /// Number of device shards ([`ServingConfig::shards`]).
    devices: usize,
    tables: Vec<ServedTable>,
    events: EventQueue<Ev>,
    /// Every request from submission until its last sub-batch retires.
    requests: IdMap<u64, Request>,
    /// The online adaptation loop, if enabled.
    adaptive: Option<AdaptiveState>,
    next_req: u64,
    stats: ServingStats,
    /// Free-list of request accumulators.
    out_pool: Vec<SlsOutput>,
    /// Free-list of requests' per-slot pending counts.
    pending_pool: Vec<Vec<u32>>,
    /// Reused staging of each admission's split.
    split_stage: SplitStage,
    /// Reused list of each admission's sub-batches.
    admit_subs: Vec<(usize, SubBatch)>,
    /// Reused reference scratch for [`ServingRuntime::verify_bitmatch`].
    ref_scratch: Vec<f32>,
    /// Host-side fault recovery policy (inert without injected faults).
    fault_policy: FaultPolicy,
    /// Failed sub-batches waiting out their backoff, keyed by the
    /// sequence number carried in [`Ev::Retry`].
    retry_park: IdMap<u64, (usize, SubBatch)>,
    next_retry: u64,
    /// The span sink every layer's tracer writes into (`None` until
    /// [`ServingRuntime::enable_tracing`]).
    sink: Option<TraceSink>,
    /// Serving-level tracer (pid 0, host track); disabled by default.
    /// Every shard's tracer is a clone on the shard's own pid.
    tracer: Tracer,
    /// Wall-clock self-profile of the simulator loop (off by default).
    wall: WallProfile,
}

impl ServingRuntime {
    /// Builds a runtime of `cfg.shards` independent systems.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &ServingConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.depth > 0, "queue depth must be at least 1");
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(&cfg.system, cfg.depth, i as u32 + 1))
            .collect();
        ServingRuntime {
            policy: cfg.policy,
            ready: BinaryHeap::new(),
            layout: cfg.layout,
            shards,
            devices: cfg.shards,
            tables: Vec::new(),
            events: EventQueue::new(),
            requests: IdMap::new(),
            adaptive: None,
            next_req: 0,
            stats: ServingStats::default(),
            out_pool: Vec::new(),
            pending_pool: Vec::new(),
            split_stage: SplitStage::default(),
            admit_subs: Vec::new(),
            ref_scratch: Vec::new(),
            fault_policy: FaultPolicy::default(),
            retry_park: IdMap::new(),
            next_retry: 0,
            sink: None,
            tracer: Tracer::disabled(),
            wall: WallProfile::new(),
        }
    }

    /// Turns on sim-time span tracing across the whole stack: the runtime
    /// records request/sub-batch spans on pid 0, every device shard's
    /// host phases + firmware + flash spans on pid `shard + 1`, and the
    /// DRAM tier on pid [`track::PID_TIER`]. Drain the spans with
    /// [`ServingRuntime::take_trace`]. Tracing must not change simulated
    /// results (CI-checks bit-identity); the disabled default performs no
    /// work and no allocation on the hot path.
    pub fn enable_tracing(&mut self) {
        let sink = TraceSink::new();
        self.tracer = sink.tracer(0, track::TID_HOST);
        self.sink = Some(sink);
        for s in &mut self.shards {
            s.sys.set_tracer(self.tracer.with_pid(s.pid));
        }
    }

    /// Drains every span recorded since the last call (empty when tracing
    /// was never enabled), in one canonical order — `(start, end, id)`.
    /// Export with `recssd_obs::chrome_trace_json`.
    pub fn take_trace(&mut self) -> Vec<SpanRec> {
        let mut spans = self.sink.as_ref().map_or_else(Vec::new, |s| s.take_spans());
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.id));
        spans
    }

    /// Clones every span recorded so far *without* draining the sink,
    /// in the same canonical `(start, end, id)` order as
    /// [`ServingRuntime::take_trace`]. This is the read path for live
    /// analysis (`recssd_obs::critical_path_report`,
    /// `utilization_timelines`, `bottleneck_report`): a pure observer
    /// that leaves a later export untouched.
    pub fn snapshot_trace(&self) -> Vec<SpanRec> {
        let mut spans = self
            .sink
            .as_ref()
            .map_or_else(Vec::new, |s| s.snapshot_spans());
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.id));
        spans
    }

    /// Turns on wall-clock self-profiling of the simulator loop (where
    /// the *simulator's own* time goes: admission, event dispatch, device
    /// stepping, harvest).
    pub fn enable_self_profiling(&mut self) {
        self.wall.enable();
    }

    /// Wall-clock self-profile totals per phase (all zero unless
    /// [`ServingRuntime::enable_self_profiling`] was called).
    pub fn wall_profile(&self) -> Vec<WallPhaseReport> {
        self.wall.report()
    }

    /// Number of device shards.
    pub fn shards(&self) -> usize {
        self.devices
    }

    /// The device shards (every shard but the DRAM tier).
    fn devices(&self) -> &[Shard] {
        &self.shards[..self.devices]
    }

    /// The current global virtual time: the event clock. Shards are only
    /// ever advanced *to* it, so no component's clock leads it.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Serving statistics accumulated so far.
    pub fn stats(&self) -> &ServingStats {
        &self.stats
    }

    /// Resets every statistic in the stack (between warm-up and
    /// measurement): the serving statistics return to their default, then
    /// each shard cascades down through host, device, firmware, FTL
    /// cache, flash and fault-injection counters (fault *schedules* and
    /// RNG state are untouched — injection timing stays replayable), and
    /// the per-shard occupancy and channel-utilisation windows re-base at
    /// the current instant. The wall-clock self-profile restarts too.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.wall.reset();
        let now = self.events.now();
        for s in &mut self.shards {
            s.slots.reset(now);
            s.sys.reset_stats();
        }
    }

    /// Time-averaged in-flight operator count per shard since the last
    /// stats reset (up to the current instant). With depth 1 this is the
    /// classic utilisation ρ; pipelining shows up as values above 1.
    pub fn shard_occupancy(&self) -> Vec<f64> {
        let now = self.events.now();
        self.devices()
            .iter()
            .map(|s| s.slots.occupancy(now))
            .collect()
    }

    /// Mean flash channel-bus busy fraction per shard since the last
    /// stats reset — the §2.2 resource whose saturation is the point of
    /// operator pipelining.
    pub fn channel_utilisation(&self) -> Vec<f64> {
        let now = self.events.now();
        self.devices()
            .iter()
            .map(|s| {
                let window = s.slots.window(now).as_ns();
                if window == 0 {
                    return 0.0;
                }
                let busy = s.sys.device().ftl().flash().stats().channel_busy;
                let total: SimDuration = busy.iter().copied().sum();
                total.as_ns() as f64 / (window * busy.len() as u64) as f64
            })
            .collect()
    }

    /// `true` once a placed table has pinned rows into the DRAM tier.
    pub fn has_tier(&self) -> bool {
        self.shards.len() > self.devices
    }

    /// Time-averaged in-flight operator count of the DRAM tier since the
    /// last stats reset (0 when no tier exists).
    pub fn tier_occupancy(&self) -> f64 {
        let now = self.events.now();
        self.shards
            .get(self.devices)
            .map_or(0.0, |s| s.slots.occupancy(now))
    }

    /// Hit/miss statistics of each device shard's FTL page cache since
    /// the last stats reset — where frequency-ordered cold-tail packing
    /// shows up (co-hot rows sharing pages raise this rate).
    pub fn ftl_cache_stats(&self) -> Vec<HitStats> {
        self.devices()
            .iter()
            .map(|s| s.sys.device().ftl().cache_stats())
            .collect()
    }

    /// Direct access to one shard's [`System`] (cache/partition setup).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_system_mut(&mut self, shard: usize) -> &mut System {
        &mut self.shards[..self.devices][shard].sys
    }

    /// Arms deterministic fault injection on every device shard. Each
    /// shard gets its own replayable fault plan seeded from
    /// `mix64(cfg.seed ^ shard)`, so per-shard schedules are independent
    /// but the whole fleet replays bit-identically from one seed. The
    /// DRAM tier never faults (host memory is out of the fault model).
    pub fn inject_faults(&mut self, cfg: &FaultConfig) {
        for (i, s) in self.shards[..self.devices].iter_mut().enumerate() {
            let mut per = cfg.clone();
            per.seed = mix64(cfg.seed ^ i as u64);
            s.sys.set_fault_plan(Some(FaultPlan::new(per)));
        }
    }

    /// Arms fault injection on one shard only (e.g. a single-shard
    /// brownout), with `cfg.seed` used as-is.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn inject_faults_on_shard(&mut self, shard: usize, cfg: &FaultConfig) {
        self.shards[..self.devices][shard]
            .sys
            .set_fault_plan(Some(FaultPlan::new(cfg.clone())));
    }

    /// Sets the host-side recovery policy (retries, backoff, deadline,
    /// fallback, circuit breaker). The policy is inert unless faults are
    /// injected.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = policy;
    }

    /// Row-range-shards `table` across every device shard and registers
    /// the slices on their devices.
    ///
    /// # Panics
    ///
    /// Panics if the table has fewer rows than there are shards.
    pub fn add_table(&mut self, table: EmbeddingTable) -> ServedTableId {
        self.register(table, None)
    }

    /// Registers `table` under a frequency-profiled placement: the plan's
    /// hot rows are pinned into the host DRAM tier (a gather view served
    /// by an extra [`System`] on the same timeline, always over the DRAM
    /// path), and each shard's on-flash image is re-ordered by
    /// [`TablePlacement::pack_order`] so the hottest cold rows share
    /// flash pages. Requests against the table split into a DRAM-tier
    /// partial plus per-shard device sub-batches and merge bit-identically
    /// to the unplaced `sls_reference` path.
    ///
    /// # Panics
    ///
    /// Panics if the placement was built for a different row count or the
    /// table has fewer rows than there are shards.
    pub fn add_table_placed(
        &mut self,
        table: EmbeddingTable,
        placement: &TablePlacement,
    ) -> ServedTableId {
        assert_eq!(
            placement.rows(),
            table.spec().rows,
            "placement was built for a different table shape"
        );
        self.register(table, Some(placement))
    }

    /// Registers `table` with its first routing generation bound into
    /// plan slot 0.
    fn register(
        &mut self,
        table: EmbeddingTable,
        placement: Option<&TablePlacement>,
    ) -> ServedTableId {
        let map = ShardMap::new(table.spec().rows, self.devices);
        let id = self.tables.len();
        self.tables.push(ServedTable {
            table,
            map,
            plans: Default::default(),
            active: 0,
            pending: None,
            generations: 1,
        });
        self.bind_plan(id, placement, 0);
        ServedTableId(id)
    }

    /// Binds one routing generation of table `t_idx` into plan slot
    /// `slot`, whose previous plan must have drained: unplaced (`None`:
    /// each device shard gets its row-range slice) or under a placement
    /// (packed slices, plus the hot rows on the tier when the plan pins
    /// any — the first such plan creates the tier). Each image replaces
    /// the one the slot already binds on its shard, or is added there.
    /// Does not touch the table's active slot — the caller decides when
    /// (and whether) the generation takes over admissions.
    fn bind_plan(&mut self, t_idx: usize, placement: Option<&TablePlacement>, slot: usize) {
        let n = self.devices;
        let hot = placement.map_or(&[][..], TablePlacement::hot_rows);
        if !hot.is_empty() && self.shards.len() == n {
            let now = self.events.now();
            // Shaped like every device shard: the same host and slots.
            let shape = &self.shards[0];
            let mut tier = Shard::new(shape.sys.config(), shape.slots.width(), track::PID_TIER);
            tier.sys.run_until(now);
            tier.slots.reset(now);
            tier.sys.set_tracer(self.tracer.with_pid(tier.pid));
            self.shards.push(tier);
        }
        let t = &mut self.tables[t_idx];
        debug_assert_eq!(t.plans[slot].inflight_subs, 0, "re-binding a busy slot");
        let used = n + usize::from(!hot.is_empty());
        let mut storage = Vec::with_capacity(n);
        for (i, shard) in self.shards[..used].iter_mut().enumerate() {
            let page_bytes = shard.sys.config().ssd.block_bytes();
            let image = if i == n {
                // A copy, not a view: the tier gathers these few rows on
                // every hit and must not re-hash a procedural source each
                // time. Dense layout keeps the tier's (never-read) flash
                // image within its registry slot whatever the hot count.
                let hot_view = t.table.select(hot).materialized();
                TableImage::new(hot_view, PageLayout::Dense, page_bytes)
            } else {
                let range = t.map.range(i);
                let slice = t.table.slice(range.clone());
                let rows = match placement {
                    Some(p) => {
                        let pack = p.pack_order(range);
                        let mut inv = vec![0u32; pack.len()];
                        for (s, &local) in pack.iter().enumerate() {
                            inv[local as usize] = s as u32;
                        }
                        storage.push(inv);
                        slice.select(&pack)
                    }
                    None => slice,
                };
                TableImage::new(rows, self.layout, page_bytes)
            };
            let ids = &mut t.plans[slot].bound;
            match ids.get(i) {
                Some(&id) => shard.sys.replace_table(id, image),
                None => ids.push(shard.sys.add_table(image)),
            }
        }
        let plan = &mut t.plans[slot];
        plan.routing = placement.map(|p| {
            let mut hot_index = vec![crate::shard::COLD; p.rows() as usize];
            for (i, &row) in hot.iter().enumerate() {
                hot_index[row as usize] = i as u32;
            }
            Routing { hot_index, storage }
        });
        plan.hot_rows = hot.to_vec();
    }

    /// The sharding of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` was not issued by this runtime.
    pub fn shard_map(&self, table: ServedTableId) -> &ShardMap {
        &self.tables[table.0].map
    }

    /// Submits a request arriving at absolute time `at` (tagged `client`
    /// for closed-loop generators). The batch is routed *when the arrival
    /// fires*, under whatever plan is active at that instant — not at
    /// submission. Completions surface from [`ServingRuntime::step`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`ServingRuntime::now`]) or
    /// `table` is unknown.
    pub fn submit_at(
        &mut self,
        at: SimTime,
        client: u64,
        table: ServedTableId,
        batch: LookupBatch,
        path: SlsPath,
    ) -> RequestId {
        assert!(table.0 < self.tables.len(), "unknown table");
        let req = self.next_req;
        self.next_req += 1;
        self.requests.insert(
            req,
            Request::Arriving(Submitted {
                client,
                table: table.0,
                batch,
                path,
            }),
        );
        self.events.push_at(at, Ev::Arrival(req));
        RequestId(req)
    }

    /// Routes one arrived request under the table's active plan and
    /// enqueues its sub-batches.
    fn admit(&mut self, now: SimTime, req: u64, submitted: Submitted) {
        let (table, path, batch) = (submitted.table, submitted.path, &submitted.batch);
        if let Some(mut ad) = self.adaptive.take() {
            if let Some(prof_ix) = ad.tables.iter().position(|&t| t == table) {
                for &row in batch.ids() {
                    ad.fresh.observe_count(prof_ix, row, ADAPTIVE_WEIGHT);
                }
            }
            ad.arrivals += 1;
            let due = ad.arrivals >= ad.policy.epoch_requests;
            if due {
                ad.arrivals = 0;
                ad.epochs += 1;
                self.run_adaptive_epoch(&mut ad);
            }
            self.adaptive = Some(ad);
        }
        let t_admit = self.wall.begin();
        let t = &mut self.tables[table];
        let plan_ix = t.active;
        let plan = &mut t.plans[plan_ix];
        let req_span = self.tracer.alloc_id();
        let mut slot_pending = self.pending_pool.pop().unwrap_or_default();
        slot_pending.clear();
        slot_pending.resize(batch.outputs(), 0);
        let mut subs = std::mem::take(&mut self.admit_subs);
        let (routed, mut hot) = (plan.routing.is_some(), 0);
        let split = split_batch(
            &t.map,
            plan.routing.as_ref(),
            path,
            batch,
            &mut self.split_stage,
        );
        for (ix, path, lookups) in split {
            // Sized to the lookups: a queued sub-batch holds no slack.
            let mut ids = self.shards[ix].free_ids.pop().unwrap_or_default();
            ids.clear();
            ids.reserve_exact(lookups.len());
            ids.extend_from_slice(lookups);
            let owner = SubOwner::Request(req);
            let mut sub = SubBatch::new(owner, table, plan_ix as u32, path, ids);
            if self.tracer.enabled() {
                sub.span = self.tracer.alloc_id();
                sub.born = now;
            }
            for (slot, _) in sub.per_output() {
                slot_pending[slot] += 1;
            }
            if ix == t.map.shards() {
                hot = sub.lookups();
            }
            subs.push((ix, sub));
        }
        if routed {
            self.stats.tier.add_hits(hot as u64);
            self.stats
                .tier
                .add_misses((batch.total_lookups() - hot) as u64);
        }
        plan.inflight_subs += subs.len();
        let mut acc = self.out_pool.pop().unwrap_or_default();
        acc.reset(batch.outputs(), t.table.spec().dim);
        let pending_lookups = batch.total_lookups() as u64;
        self.requests.insert(
            req,
            Request::Serving(Inflight {
                span: req_span,
                arrival: now,
                first_start: None,
                finish: now,
                acc,
                slot_pending,
                missing_lookups: 0,
                pending_lookups,
                submitted,
            }),
        );
        if let Some(deadline) = self.fault_policy.deadline {
            self.events.push_at(now + deadline, Ev::Deadline(req));
        }
        self.wall.end(WallPhase::Admit, t_admit);
        for (ix, sub) in subs.drain(..) {
            self.queue_sub(ix, sub, now);
        }
        self.admit_subs = subs;
    }

    /// The one way into flight: puts `sub` at the back of `ix`'s queue and
    /// visits the shard. `now` is where the sub-batch's traced `sub:wait`
    /// window starts, so a retry re-bases it: the backoff is not queueing.
    fn queue_sub(&mut self, ix: usize, mut sub: SubBatch, now: SimTime) {
        sub.enqueued = now;
        self.shards[ix].queue.push_back(sub);
        self.visit_shard(ix, now);
    }

    /// Swaps `table`'s placement to `placement` *live on the simulated
    /// timeline*. The new plan is bound into the plan slot beside the
    /// active one (double-buffered A/B slots); promoted rows are read off
    /// the device shards as real migration operators (and gathered into
    /// the DRAM tier), competing with client traffic for the same queues;
    /// only when that work drains does the new plan take over admissions.
    /// Requests split under the old plan keep their routing and drain
    /// bit-identically.
    ///
    /// Returns the new plan's generation index, or `None` when the
    /// refresh must be deferred — either a previous refresh is still
    /// migrating, or the plan slot the new plan needs still has
    /// in-flight work from the plan it would replace (retry after more
    /// traffic drains).
    ///
    /// # Panics
    ///
    /// Panics if `table` is unknown or `placement` was built for a
    /// different row count.
    pub fn refresh_placement(
        &mut self,
        table: ServedTableId,
        placement: &TablePlacement,
    ) -> Option<usize> {
        let t_idx = table.0;
        assert_eq!(
            placement.rows(),
            self.tables[t_idx].table.spec().rows,
            "placement was built for a different table shape"
        );
        if self.tables[t_idx].pending.is_some() {
            return None;
        }
        let old_ix = self.tables[t_idx].active;
        let new_ix = 1 - old_ix;
        // The slot's previous plan must have fully drained: re-binding
        // swaps the flash image under any operator still addressing it.
        if self.tables[t_idx].plans[new_ix].inflight_subs > 0 {
            return None;
        }
        self.bind_plan(t_idx, Some(placement), new_ix);
        let now = self.events.now();
        let t = &mut self.tables[t_idx];
        let generation = t.generations;
        t.generations += 1;

        let old = &t.plans[old_ix];
        let demoted = (old.hot_rows.iter())
            .filter(|&&r| !placement.is_hot(r))
            .count() as u64;

        // Migration work, one row list per shard index: each promoted row
        // (hot in the new plan, served from the device by the old one) is
        // read off its device shard (old plan coordinates — that is where
        // the row physically lives right now) and loaded into the tier at
        // its position in the new hot view. Promoted rows come off flash
        // through the NDP gather — the device's bulk-read mechanism —
        // rather than one conventional read per page; the tier load, the
        // rows' write into host DRAM, is modelled as a gather. Chunked so
        // it pipelines; device chunks queue before the tier's.
        let (n, map) = (self.devices, t.map);
        let mut rows: Vec<Vec<u64>> = vec![Vec::new(); n + 1];
        for (j, &row) in placement.hot_rows().iter().enumerate() {
            if old.is_hot(row) {
                continue;
            }
            let (shard, local) = (map.shard_of(row), map.local_row(row));
            rows[shard].push(match &old.routing {
                Some(routing) => u64::from(routing.storage[shard][local as usize]),
                None => local,
            });
            rows[n].push(j as u64);
        }
        let promoted = rows[n].len() as u64;
        if promoted == 0 {
            // Nothing to move: the swap is pure routing state.
            t.active = new_ix;
            t.plans[old_ix].retire();
            self.stats.plan_refreshes.inc();
            self.stats.rows_demoted.add(demoted);
            return Some(generation);
        }
        let ndp = SlsPath::Ndp(SlsOptions::default());
        let mut subs = Vec::new();
        for (ix, rows) in rows.iter().enumerate() {
            let (plan, path) = if ix == n {
                (new_ix, SlsPath::Dram)
            } else {
                (old_ix, ndp)
            };
            // One output a row.
            for chunk in rows.chunks(MIGRATION_CHUNK_ROWS) {
                let mut ids = Vec::with_capacity(1 + 2 * chunk.len());
                ids.push(0);
                let mut open = 0;
                for (slot, &row) in chunk.iter().enumerate() {
                    push_row(&mut ids, &mut open, slot, row);
                }
                let owner = SubOwner::Migration(t_idx);
                subs.push((ix, SubBatch::new(owner, t_idx, plan as u32, path, ids)));
            }
        }
        t.pending = Some(PendingPlan {
            remaining: subs.len(),
            promoted,
            demoted,
        });
        self.stats.migration_lookups.add(promoted);
        for (ix, mut sub) in subs {
            if self.tracer.enabled() {
                sub.span = self.tracer.alloc_id();
                sub.born = now;
            }
            self.tables[t_idx].plans[sub.plan as usize].inflight_subs += 1;
            self.queue_sub(ix, sub, now);
        }
        Some(generation)
    }

    /// Turns on the online adaptation loop over every table registered so
    /// far: each admitted request feeds a decayed
    /// [`recssd_placement::FreqProfiler`], and
    /// every [`AdaptivePolicy::epoch_requests`] admissions the runtime
    /// rebuilds the placement under the policy's global DRAM budget
    /// (split by marginal hit rate) and live-refreshes any table whose
    /// hot set moved by at least the hysteresis threshold.
    ///
    /// # Panics
    ///
    /// Panics if no tables are registered or the policy is degenerate.
    pub fn enable_adaptive(&mut self, policy: AdaptivePolicy) {
        assert!(!self.tables.is_empty(), "no tables to adapt");
        assert!(policy.epoch_requests > 0, "epoch must cover requests");
        assert!(
            (0.0..=1.0).contains(&policy.decay),
            "decay factor must lie in [0, 1]"
        );
        self.adaptive = Some(AdaptiveState::new(
            policy,
            self.tables.iter().map(|t| t.table.spec().rows),
        ));
    }

    /// Digest of every adaptive decision taken so far.
    #[cfg(test)]
    pub(crate) fn adaptive_decisions(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |a| a.decisions)
    }

    /// Number of completed adaptation epochs (0 when adaptivity is off).
    pub fn adaptive_epochs(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |a| a.epochs)
    }

    /// `true` while `table` has a refresh whose migration is in flight.
    pub fn refresh_pending(&self, table: ServedTableId) -> bool {
        self.tables[table.0].pending.is_some()
    }

    /// Routing generations registered for `table` (1 = never refreshed).
    pub fn plan_generations(&self, table: ServedTableId) -> usize {
        self.tables[table.0].generations
    }

    /// One adaptation epoch. Change-point detection first: if the active
    /// plan's hit mass under this epoch's *fresh* counts collapsed
    /// relative to what the long-memory ranking promised, the traffic
    /// distribution shifted — flush the EWMA so the stale history cannot
    /// outvote the new regime. Then fold the epoch into the EWMA, split
    /// the global budget by marginal hit rate, and refresh every table
    /// whose rebuilt hot set would absorb enough extra traffic.
    fn run_adaptive_epoch(&mut self, ad: &mut AdaptiveState) {
        for (prof_ix, &t_idx) in ad.tables.iter().enumerate() {
            let t = &self.tables[t_idx];
            let active = || t.plans[t.active].hot_rows.iter().copied();
            let fresh = ad.fresh.heat(prof_ix);
            let remembered = ad.ewma.heat(prof_ix);
            let shifted = fresh.total() > 0
                && remembered.total() > 0
                && hit_mass(remembered, active()) - hit_mass(fresh, active()) >= DRIFT_RESET_DROP;
            // The flush is per table: one table's rotation must not erase
            // the well-sampled history of tables that did not move.
            let factor = if shifted {
                DRIFT_FLUSH_DECAY
            } else {
                ad.policy.decay
            };
            ad.ewma.decay_table(prof_ix, factor);
        }
        ad.ewma.merge(&ad.fresh);
        ad.fresh.decay(0.0);

        let budgets = ad.budget_scratch.allocate(&ad.ewma, ad.policy.budget_rows);
        for (prof_ix, &t_idx) in ad.tables.iter().enumerate() {
            let heat = ad.ewma.heat(prof_ix);
            if heat.total() == 0 {
                continue;
            }
            let budget = budgets[prof_ix];
            let t = &self.tables[t_idx];
            let active = &t.plans[t.active];
            let is_pinned = |row| active.is_hot(row);
            select_hot_set(heat, &active.hot_rows, is_pinned, budget, &mut ad.cand);
            // Marginal gain of swapping plans, measured on the current
            // ranking: how much more traffic the rebuilt hot set would
            // have absorbed than the one serving right now.
            let gain = hit_mass(heat, ad.cand.iter().map(|c| c.2))
                - hit_mass(heat, active.hot_rows.iter().copied());
            let refreshed = gain >= ad.policy.min_hit_gain && {
                let hot = ad.cand.iter().map(|c| c.2).collect();
                let placement = TablePlacement::build_with_hot_rows(heat, hot);
                self.refresh_placement(ServedTableId(t_idx), &placement)
                    .is_some()
            };
            if cfg!(test) {
                fold_decision(&mut ad.decisions, budget, &ad.cand, refreshed);
            }
        }
    }

    /// Returns a consumed request output to the accumulator pool.
    pub fn recycle_output(&mut self, outputs: SlsOutput) {
        if self.out_pool.len() < POOL_CAP {
            self.out_pool.push(outputs);
        }
    }

    /// Computes the unsharded reference for `done` with
    /// [`sls_reference_into`] and asserts the merged sharded output is
    /// bit-identical. Slots flagged missing on a degraded completion are
    /// skipped — they are explicitly not results — so the property
    /// checked is *no silently wrong bits*: every slot the runtime
    /// claims to have served must bit-match the reference.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch in a non-missing slot.
    pub fn verify_bitmatch(&mut self, done: &CompletedRequest) {
        let table = &self.tables[done.table.0].table;
        let dim = table.spec().dim;
        self.ref_scratch.clear();
        self.ref_scratch.resize(done.batch.outputs() * dim, 0.0);
        sls_reference_into(table, &done.batch, &mut self.ref_scratch);
        // `missing_slots` is empty for a fully served request: every slot
        // is checked.
        for slot in 0..done.batch.outputs() {
            if done.missing_slots.get(slot) == Some(&true) {
                continue;
            }
            assert_eq!(
                done.outputs.row(slot),
                &self.ref_scratch[slot * dim..(slot + 1) * dim],
                "request {:?} slot {slot}: served (non-missing) output \
                 diverged from sls_reference",
                done.id
            );
        }
    }

    /// Advances the simulation until the next request completes, or until
    /// nothing is left to do. Each pass runs the earliest pending instant:
    /// a shard's next device event (visiting that shard there) or the
    /// runtime queue's head; shards go first at equal instants, in index
    /// order.
    ///
    /// Completions come out in `(finish, id)` order: a finished request is
    /// handed out only once every pending instant lies strictly after its
    /// finish, so no same-instant harvest can still yield a smaller id.
    /// The exception: a request served by its deadline is handed out at
    /// the deadline instant, ahead of ready completions with that finish.
    ///
    /// # Errors
    ///
    /// Returns a [`ServingError`] when the event stream references a
    /// request the runtime's bookkeeping does not know — an internal
    /// invariant violation, never a consequence of injected device
    /// faults (those are absorbed by the retry/degradation machinery).
    pub fn step(&mut self) -> Result<Option<CompletedRequest>, ServingError> {
        loop {
            // The earliest pending instant and whose it is: a shard
            // index, or `usize::MAX` for the runtime queue's head.
            let next = (self.shards.iter().enumerate())
                .filter_map(|(ix, s)| Some((s.sys.next_event_time()?, ix)))
                .chain(self.events.peek_time().map(|t| (t, usize::MAX)))
                .min();
            if let Some(&Reverse((fin, req))) = self.ready.peek() {
                if next.is_none_or(|(t, _)| fin < t.as_ns()) {
                    self.ready.pop();
                    return self.finalize_request(req).map(Some);
                }
            }
            let Some((t, ix)) = next else {
                return Ok(None);
            };
            if ix < self.shards.len() {
                self.events.advance_to(t);
                self.visit_shard(ix, t);
                continue;
            }
            let (now, ev) = self.events.pop().expect("the head was just peeked");
            match ev {
                Ev::Arrival(req) => {
                    let Some(Request::Arriving(arrival)) = self.requests.remove(&req) else {
                        return Err(ServingError::MissingArrival(req));
                    };
                    self.admit(now, req, arrival);
                }
                Ev::Retry(seq) => {
                    let (ix, sub) = self
                        .retry_park
                        .remove(&seq)
                        .expect("retry event without a parked sub-batch");
                    self.queue_sub(ix, sub, now);
                }
                Ev::Deadline(req) => {
                    if let Some(done) = self.expire_deadline(now, req) {
                        return Ok(Some(done));
                    }
                }
            }
        }
    }

    /// Hands a request whose last sub-batch retired to
    /// [`ServingRuntime::complete_request`].
    fn finalize_request(&mut self, req: u64) -> Result<CompletedRequest, ServingError> {
        let t0 = self.wall.begin();
        let Some(Request::Serving(inf)) = self.requests.remove(&req) else {
            return Err(ServingError::UnknownCompletion(req));
        };
        if inf.first_start.is_none() {
            return Err(ServingError::ServedBeforeStart(req));
        }
        let finish = inf.finish;
        let done = self.complete_request(req, inf, finish);
        self.wall.end(WallPhase::EventDispatch, t0);
        Ok(done)
    }

    /// Serves request `req` degraded *right now* because its deadline
    /// fired: whatever partials have merged are returned with every
    /// still-owed slot flagged missing. The lookups its sub-batches still
    /// owe are left in its [`Request::Expired`] record, where they retire
    /// discarded.
    fn expire_deadline(&mut self, now: SimTime, req: u64) -> Option<CompletedRequest> {
        // The deadline may fire after the request finished (entry gone)
        // or in the same instant as its completion event (nothing owed):
        // both mean it was served in time.
        let record = self.requests.get_mut(&req)?;
        let owed = match record {
            Request::Serving(inf) if inf.pending_lookups > 0 => inf.pending_lookups,
            _ => return None,
        };
        let Request::Serving(mut inf) = std::mem::replace(record, Request::Expired { owed }) else {
            unreachable!("matched above");
        };
        inf.missing_lookups += owed;
        Some(self.complete_request(req, inf, now))
    }

    /// The one way a request completes, served at `finish`: records its
    /// latencies and counts its degradation, emits the request span and
    /// builds the [`CompletedRequest`] to deliver.
    fn complete_request(&mut self, req: u64, inf: Inflight, finish: SimTime) -> CompletedRequest {
        let (queue, service) = match inf.first_start {
            Some(fs) => (
                fs.saturating_since(inf.arrival),
                finish.saturating_since(fs),
            ),
            None => (finish.saturating_since(inf.arrival), SimDuration::ZERO),
        };
        self.stats.record(
            inf.arrival,
            queue,
            service,
            finish,
            inf.submitted.batch.total_lookups() as u64,
            inf.submitted.path,
        );
        let degraded = inf.missing_lookups > 0;
        if degraded {
            self.stats.degraded.inc();
            self.stats.missing_lookups.add(inf.missing_lookups);
        }
        if self.tracer.enabled() && inf.span.is_some() {
            self.tracer.emit(
                inf.span,
                "request",
                inf.arrival,
                finish,
                SpanId::NONE,
                "degraded",
                degraded as u64,
                inf.submitted.path.name(),
            );
        }
        let done = CompletedRequest {
            id: RequestId(req),
            client: inf.submitted.client,
            table: ServedTableId(inf.submitted.table),
            arrival: inf.arrival,
            finish,
            queue,
            service,
            batch: inf.submitted.batch,
            outputs: inf.acc,
            missing_lookups: inf.missing_lookups,
            missing_slots: if degraded {
                inf.slot_pending.iter().map(|&owed| owed > 0).collect()
            } else {
                Vec::new()
            },
        };
        if self.pending_pool.len() < POOL_CAP {
            self.pending_pool.push(inf.slot_pending);
        }
        done
    }

    /// Runs until every submitted request has completed, returning the
    /// completions in finish order.
    ///
    /// # Panics
    ///
    /// Panics on a [`ServingError`] (use [`ServingRuntime::step`]
    /// directly to observe it) or when work is stuck with no pending
    /// events.
    pub fn run_until_idle(&mut self) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        while let Some(c) = self.step().expect("serving runtime invariant violated") {
            done.push(c);
        }
        assert!(
            self.requests.is_empty(),
            "requests stuck with no pending events"
        );
        assert!(
            self.tables.iter().all(|t| t.pending.is_none()),
            "plan migration stuck with no pending events"
        );
        done
    }

    /// One visit of a shard at the global instant: advance its system
    /// there, fold every operator that finished into its owners, and
    /// dispatch while capacity allows.
    ///
    /// Every operator harvested here finished at `now`: a shard is visited
    /// at each of its own event instants, and an operator's completion is
    /// one of them. So no finish order needs restoring: the scan folds
    /// each operator as it takes it, slot release and breaker outcome
    /// included, all at `now`.
    fn visit_shard(&mut self, ix: usize, now: SimTime) {
        let t_dev = self.wall.begin();
        self.shards[ix].sys.run_until(now);
        self.wall.end(WallPhase::DeviceStep, t_dev);
        // What lets `self.events.now()` stand for "the furthest instant
        // any component has reached" everywhere in this file.
        debug_assert!(
            self.shards.iter().all(|s| s.sys.now() <= self.events.now()),
            "a shard clock leads the event clock"
        );
        if self.shards[ix].sys.has_results() {
            let t_harvest = self.wall.begin();
            let mut i = 0;
            while i < self.shards[ix].inflight.len() {
                let s = &mut self.shards[ix];
                let Some(result) = s.sys.try_take_result(s.inflight[i].op) else {
                    i += 1;
                    continue;
                };
                debug_assert_eq!(result.finished, now, "an operator harvested off its finish");
                let infop = s.inflight.swap_remove(i);
                self.fold_one(ix, infop, result);
            }
            self.wall.end(WallPhase::Harvest, t_harvest);
        }
        let s = &mut self.shards[ix];
        while !s.queue.is_empty() {
            let Some(slot) = s.slots.acquire(now) else {
                break;
            };
            let n_subs = dispatch_on(s, ix, now, slot, &self.tables, self.policy, &self.tracer);
            self.stats.ops_dispatched.inc();
            self.stats.subs_dispatched.add(n_subs);
        }
    }

    /// Folds one operator harvested at its finish instant: releases its
    /// slot, records its outcome in the shard's breaker, and retires every
    /// component sub-batch into its owner. Failed operators instead route
    /// each component through the retry/fallback/degradation policy.
    ///
    /// All per-op times derive from the operator's own finish instant,
    /// which is the visit instant ([`ServingRuntime::visit_shard`]).
    fn fold_one(&mut self, ix: usize, mut infop: InflightOp, result: OpResult) {
        let s = &mut self.shards[ix];
        s.slots.release(result.finished, infop.slot);
        let error = result.error.is_some();
        if s.breaker.record(result.finished, error, &self.fault_policy) {
            self.stats.breaker_trips.inc();
        }
        let service = result.finished.saturating_since(result.started);
        if ix == self.devices {
            self.stats.tier_service.record_duration(service);
        } else {
            self.stats.device_service.record_duration(service);
        }
        if error {
            self.stats.faults.inc();
            self.handle_failed_op(ix, infop.subs, &result);
        } else {
            let outputs = result.outputs.as_ref().expect("SLS ops produce outputs");
            let mut offset = 0;
            for sub in infop.subs.drain(..) {
                let width = sub.outputs();
                let outcome = Outcome::Served { outputs, offset };
                self.retire_sub(ix, sub, result.started, result.finished, outcome);
                offset += width;
            }
            self.shards[ix].free_subs.push(infop.subs);
        }
        if let Some(outputs) = result.outputs {
            self.shards[ix].sys.recycle_outputs(outputs);
        }
    }

    /// Routes every component of a failed device operator through the
    /// recovery policy: re-queue with backoff (optionally falling back
    /// from the NDP to the baseline path) while the retry budget lasts,
    /// then give the sub-batch up — requests serve degraded with the
    /// loss flagged, migration chunks are abandoned (they model movement
    /// cost only, so giving up is safe). A straggler of a request its
    /// deadline already served is given up at once.
    fn handle_failed_op(&mut self, ix: usize, mut subs: Vec<SubBatch>, result: &OpResult) {
        let policy = self.fault_policy;
        for mut sub in subs.drain(..) {
            sub.attempts += 1;
            // The failed attempt still occupied the device: it counts
            // toward the request's service time.
            let expired = match sub.owner {
                SubOwner::Request(req) => match self.requests.get_mut(&req) {
                    Some(Request::Serving(inf)) => {
                        inf.note_start(result.started);
                        false
                    }
                    _ => true,
                },
                SubOwner::Migration(_) => false,
            };
            if expired || sub.attempts > policy.max_retries {
                self.retire_sub(ix, sub, result.started, result.finished, Outcome::Dropped);
                continue;
            }
            self.schedule_retry(ix, result.finished, sub, &policy);
        }
        self.shards[ix].free_subs.push(subs);
    }

    /// The one way out of flight: settles `sub`, whose last device
    /// operator ran on shard `ix` over `[started, finished]`, releases its
    /// plan pin and returns a request's buffer to the shard's free list.
    /// By owner and outcome the sub-batch has *merged* (its partial sums
    /// fold into its request), merged *late* (the deadline already served
    /// the request: the partial is discarded), been *dropped* (its slots
    /// are flagged missing; after the deadline it is simply discarded) or
    /// is a *migration* chunk (retired or abandoned; the read was the
    /// cost). Emits the sub-batch's one span, and queues its request on
    /// the ready-queue once nothing else is owed.
    fn retire_sub(
        &mut self,
        ix: usize,
        sub: SubBatch,
        started: SimTime,
        finished: SimTime,
        outcome: Outcome<'_>,
    ) {
        self.tables[sub.table].plans[sub.plan as usize].inflight_subs -= 1;
        let lookups = sub.lookups() as u64;
        let arg = match outcome {
            Outcome::Served { .. } => ("lookups", lookups),
            Outcome::Dropped => ("dropped", lookups),
        };
        let (name, parent, arg) = match sub.owner {
            SubOwner::Migration(t_idx) => {
                self.migration_sub_done(t_idx);
                ("migration", SpanId::NONE, arg)
            }
            SubOwner::Request(req) => match self.requests.get_mut(&req) {
                Some(Request::Serving(inf)) => {
                    inf.note_start(started);
                    inf.finish = inf.finish.max(finished);
                    inf.pending_lookups -= lookups;
                    match outcome {
                        Outcome::Served { outputs, offset } => {
                            for (i, (slot, _)) in sub.per_output().enumerate() {
                                inf.slot_pending[slot] -= 1;
                                let src = outputs.row(offset + i);
                                for (o, v) in inf.acc.row_mut(slot).iter_mut().zip(src) {
                                    *o += *v;
                                }
                            }
                        }
                        Outcome::Dropped => inf.missing_lookups += lookups,
                    }
                    if inf.pending_lookups == 0 {
                        self.ready.push(Reverse((inf.finish.as_ns(), req)));
                    }
                    ("sub", inf.span, arg)
                }
                Some(Request::Expired { owed }) => {
                    // The request span closed at the deadline, before
                    // this end, so the straggler's span is a root.
                    *owed -= lookups;
                    if *owed == 0 {
                        self.requests.remove(&req);
                    }
                    let arg = match outcome {
                        Outcome::Served { .. } => ("late", 1),
                        Outcome::Dropped => arg,
                    };
                    ("sub", SpanId::NONE, arg)
                }
                _ => unreachable!("sub-batch of a request that is not in flight"),
            },
        };
        if self.tracer.enabled() && sub.span.is_some() {
            let (key, val) = arg;
            let path = sub.path.name();
            self.tracer
                .emit(sub.span, name, sub.born, finished, parent, key, val, path);
        }
        // Migration chunks (up to 64 outputs) would bloat the free list
        // of request-sized buffers; they are rare, so they just drop.
        let free = &mut self.shards[ix].free_ids;
        if free.len() < POOL_CAP && matches!(sub.owner, SubOwner::Request(_)) {
            free.push(sub.ids);
        }
    }

    /// Parks a failed sub-batch for re-dispatch after its exponential
    /// backoff, falling back from the NDP to the baseline path once the
    /// policy's attempt threshold is reached. The sub-batch keeps its
    /// plan pin, so its plan slot cannot be re-bound under it.
    fn schedule_retry(&mut self, ix: usize, now: SimTime, mut sub: SubBatch, policy: &FaultPolicy) {
        self.stats.retries.inc();
        if sub.attempts >= policy.fallback_after {
            if let Some(fallback) = sub.path.ndp_fallback() {
                sub.path = fallback;
                self.stats.fallbacks.inc();
            }
        }
        let shift = (sub.attempts - 1).min(16);
        let backoff = policy.backoff_base * (1u64 << shift);
        let seq = self.next_retry;
        self.next_retry += 1;
        self.retry_park.insert(seq, (ix, sub));
        // `now` is the failed operator's finish instant; the clamp is a
        // never-firing safety net for the event queue's no-past invariant.
        let at = (now + backoff).max(self.events.now());
        self.events.push_at(at, Ev::Retry(seq));
    }

    /// Retires one migration sub-batch; the last one activates the
    /// pending plan for all admissions from now on.
    fn migration_sub_done(&mut self, t_idx: usize) {
        let t = &mut self.tables[t_idx];
        let pending = t.pending.as_mut().expect("migration without refresh");
        pending.remaining -= 1;
        if pending.remaining == 0 {
            let done = t.pending.take().expect("just checked");
            t.plans[t.active].retire();
            t.active = 1 - t.active;
            self.stats.plan_refreshes.inc();
            self.stats.rows_promoted.add(done.promoted);
            self.stats.rows_demoted.add(done.demoted);
        }
    }
}

/// Merges the front of `s`'s queue (plus, under micro-batching, every
/// queued mergeable sub-batch up to the output cap) into one device
/// operator and submits it on operator slot `slot` — without draining
/// the shard, so multiple operators pipeline on the device. Returns the
/// number of merged sub-batches; the caller accounts the dispatch
/// counters. A free function so the caller can hold the shard mutably
/// beside the read-only table state and the host-track tracer.
fn dispatch_on(
    s: &mut Shard,
    ix: usize,
    now: SimTime,
    slot: usize,
    tables: &[ServedTable],
    policy: SchedulePolicy,
    tracer: &Tracer,
) -> u64 {
    // Select sub-batches: FIFO takes the head; micro-batching drains
    // every queued sub-batch mergeable with the head (in order) up to
    // the output cap.
    let head = s.queue.pop_front().expect("dispatch on empty queue");
    let key = head.merge_key();
    let mut cap = match policy {
        SchedulePolicy::Fifo => head.outputs(),
        SchedulePolicy::MicroBatch { max_outputs, .. } => max_outputs.max(head.outputs()),
    };
    cap -= head.outputs();
    let mut taken = s.free_subs.pop().unwrap_or_default();
    taken.push(head);
    if cap > 0 {
        let mut i = 0;
        while i < s.queue.len() && cap > 0 {
            if s.queue[i].merge_key() == key && s.queue[i].outputs() <= cap {
                let sub = s.queue.remove(i).expect("index checked");
                cap -= sub.outputs();
                taken.push(sub);
            } else {
                i += 1;
            }
        }
    }

    // Merge into one operator-sized batch, in a buffer a finished
    // operator of this shard paid back. The component sub-batches are
    // kept intact (their slice of the merged output block is implied by
    // per-output counts, in order) so a failed operator can re-queue
    // each component for retry.
    let (table, plan) = (key.table, key.plan as usize);
    let outputs = taken.iter().map(SubBatch::outputs).sum();
    let lists = taken
        .iter()
        .flat_map(|sub| sub.per_output().map(|(_, ids)| ids));
    let merged = LookupBatch::from_outputs(s.sys.batch_buffer(), outputs, lists);
    // A tier index is only dispatched under a plan that pins rows, and
    // binding such a plan binds the tier in its slot.
    let device_table = tables[table].plans[plan].bound[ix];
    // A tripped circuit breaker redirects NDP operators onto the
    // conventional baseline path for this dispatch only — the
    // sub-batches keep their own path, so later retries (and the
    // half-open probe) re-evaluate the breaker.
    let path = match key.path.ndp_fallback() {
        Some(fallback) if !s.breaker.allows_ndp(now) => fallback,
        _ => key.path,
    };
    let kind = OpKind::Sls {
        table: device_table,
        batch: merged,
        path,
    };

    // Submit onto the shard's system (already synced to `now` by the
    // caller) and leave it in flight; completions are harvested by
    // later shard syncs.
    let n_subs = taken.len() as u64;
    debug_assert_eq!(s.sys.now(), now, "dispatch on an unsynced shard");
    // The device operator parents under the head sub.
    let (op, op_span) = s.sys.submit_traced(kind, taken[0].span);
    if tracer.enabled() {
        // Queue-wait of each merged component, child of its sub span,
        // caused by the operator that ends it (which parents under a
        // different request's sub when micro-batching merged them). The
        // `shard` argument carries the resource pid.
        let res_pid = u64::from(s.pid);
        for sub in taken.iter().filter(|sub| sub.span.is_some()) {
            let (at, span) = (sub.enqueued, sub.span);
            tracer.window("sub:wait", at, now, span, op_span.0, "shard", res_pid);
        }
    }
    s.inflight.push(InflightOp {
        op,
        slot,
        subs: taken,
    });
    n_subs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_record_stays_small() {
        // 16 384 of them back the open-loop backlog's request map.
        assert!(std::mem::size_of::<Request>() <= 184);
    }

    /// A window of 4 operators that trips at half of them in error, with a
    /// 10 µs cooldown.
    fn breaker_policy() -> FaultPolicy {
        FaultPolicy {
            breaker_window: 4,
            breaker_threshold: 0.5,
            breaker_cooldown: SimDuration::from_us(10),
            ..FaultPolicy::default()
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    /// A breaker tripped at 0 µs by two errors.
    fn tripped() -> Breaker {
        let (mut b, policy) = (Breaker::new(), breaker_policy());
        assert!(!b.record(at(0), true, &policy));
        assert!(b.record(at(0), true, &policy));
        b
    }

    #[test]
    fn breaker_trips_when_errors_reach_the_threshold_and_not_before() {
        let (mut b, policy) = (Breaker::new(), breaker_policy());
        // One error in the window: below 0.5 × 4.
        for error in [true, false, false, false, false] {
            assert!(!b.record(at(0), error, &policy));
        }
        assert!(b.allows_ndp(at(0)));
        // The first error slid out of the window: two more reach 2 of 4.
        assert!(!b.record(at(1), true, &policy));
        assert!(b.record(at(1), true, &policy));
        assert_eq!(b.state, BreakerState::Open { until: at(11) });
    }

    #[test]
    fn an_open_breaker_redirects_until_the_cooldown_ends() {
        let mut b = tripped();
        // Outcomes while open change nothing.
        assert!(!b.record(at(5), false, &breaker_policy()));
        for t in [0, 5, 9] {
            assert!(!b.allows_ndp(at(t)), "redirects at {t} µs");
        }
        assert_eq!(b.state, BreakerState::Open { until: at(10) });
    }

    #[test]
    fn after_the_cooldown_exactly_one_probe_goes_through() {
        let mut b = tripped();
        assert!(b.allows_ndp(at(10)));
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert!(!b.allows_ndp(at(10)));
        assert!(!b.allows_ndp(at(50)));
    }

    #[test]
    fn a_successful_probe_closes_the_breaker_and_clears_its_window() {
        let (mut b, policy) = (tripped(), breaker_policy());
        assert!(b.allows_ndp(at(10)));
        assert!(!b.record(at(12), false, &policy));
        assert_eq!(
            (b.state, b.recent.len(), b.errs),
            (BreakerState::Closed, 0, 0)
        );
        assert!(b.allows_ndp(at(12)));
        // A cleared window needs two fresh errors to trip again.
        assert!(!b.record(at(13), true, &policy));
        assert!(b.record(at(13), true, &policy));
    }

    #[test]
    fn a_failed_probe_reopens_the_breaker() {
        let (mut b, policy) = (tripped(), breaker_policy());
        assert!(b.allows_ndp(at(10)));
        assert!(b.record(at(12), true, &policy));
        assert_eq!(b.state, BreakerState::Open { until: at(22) });
        assert!(!b.allows_ndp(at(21)));
        assert!(b.allows_ndp(at(22)));
    }
}
