//! **recssd-serving**: the sharded multi-device serving layer of the
//! RecSSD reproduction.
//!
//! The core simulator models *one* device answering *one* operator at a
//! time; production recommendation inference is many devices answering
//! concurrent, batched traffic. This crate adds that regime:
//!
//! * [`ServingRuntime`] — owns N independent [`recssd::System`]s (one per
//!   SSD shard) on one virtual timeline, row-range-shards every embedding
//!   table across them ([`ShardMap`] + `EmbeddingTable::slice`), splits
//!   each incoming request into per-shard sub-batches, and merges the
//!   partial `SlsOutput`s back — bit-identical to the unsharded
//!   `sls_reference` on all three execution paths, regardless of how
//!   completions interleave.
//! * **Operator pipelining** — each shard keeps up to
//!   [`ServingConfig::depth`] device operators in flight simultaneously
//!   (bounded co-simulation through `System::run_until`), so NVMe
//!   submission, firmware service and flash channel/die occupancy
//!   overlap across requests instead of draining between operators; at
//!   one shard, depth 4 roughly doubles NDP FIFO throughput and lifts
//!   flash channel utilisation from ~40% to ~75%.
//! * **Hybrid placement** — tables registered through
//!   [`ServingRuntime::add_table_placed`] carry a frequency-profiled
//!   `recssd_placement::TablePlacement`: their hottest rows are pinned
//!   into a host **DRAM tier** (one more pipelined server on the same
//!   timeline, always serving over the DRAM path), the cold tail is
//!   packed onto flash in heat order so co-hot rows share pages, and
//!   every request splits into a DRAM-tier partial plus per-shard device
//!   sub-batches — merged bit-identically to the unplaced path
//!   (property-tested in `tests/placement_equivalence.rs`).
//! * **Adaptive placement** — plans are versioned, live-swappable
//!   routing generations: [`ServingRuntime::refresh_placement`] binds a
//!   new plan into spare A/B registry slots, reads the promoted rows off
//!   the device as real migration operators, and flips admissions to the
//!   new plan only when that work drains (in-flight requests keep their
//!   generation, so outputs stay bit-identical across the boundary).
//!   [`ServingRuntime::enable_adaptive`] closes the loop under drifting
//!   skew: every [`AdaptivePolicy::epoch_requests`] admissions the
//!   runtime re-profiles live traffic (decayed EWMA + change-point
//!   flush), splits one global DRAM budget across tables by marginal hit
//!   rate, and refreshes any table whose rebuilt hot set is worth the
//!   migration.
//! * [`SchedulePolicy`] — FIFO, or size-capped micro-batching that
//!   coalesces *queued* sub-batches touching the same shard into one
//!   device operator (amortising per-command fixed costs, the
//!   RecNMP/MicroRec batching result); a shard with free operator
//!   capacity always dispatches immediately.
//! * [`ServingStats`] ([`ServingRuntime::stats`]) — the one record of a
//!   run's serving statistics: per-request queue/service/e2e latency in
//!   HDR-style log-bucket histograms (p50/p95/p99/p999), throughput,
//!   batching, DRAM-tier hit rate, per-tier service latency, placement
//!   refreshes and resilience counters. Gauges of the runtime's servers
//!   are read from the runtime itself: per-shard operator occupancy
//!   ([`ServingRuntime::shard_occupancy`]), flash channel utilisation
//!   ([`ServingRuntime::channel_utilisation`]), DRAM-tier occupancy
//!   ([`ServingRuntime::tier_occupancy`]) and FTL page-cache hits
//!   ([`ServingRuntime::ftl_cache_stats`]).
//! * [`LoadGen`] — open-loop (Poisson/uniform arrivals) and closed-loop
//!   (client population) generators with Zipf-skewed per-table traffic;
//!   [`LoadGen::run`] resets the runtime's statistics, drives one run and
//!   returns how many completions it bit-verified.
//! * **Resilience** — [`ServingRuntime::inject_faults`] arms the device
//!   layers' deterministic, seeded fault plans (`recssd::FaultConfig`:
//!   transient ECC-retried reads, uncorrectable page errors, firmware
//!   stalls, shard brownouts) per shard, and [`FaultPolicy`] governs the
//!   host-side response: per-sub-batch retries with simulated-time
//!   exponential backoff, NDP→baseline path fallback, per-request
//!   deadlines, and a per-shard circuit breaker. Requests whose rows are
//!   unrecoverable complete *degraded* — missing rows counted and their
//!   output slots flagged ([`CompletedRequest::missing_slots`]), never
//!   silently wrong: every non-flagged slot stays bit-identical to
//!   `sls_reference` (property-tested in `tests/fault_injection.rs`,
//!   which also checks that an all-zero-rate fault plan reproduces the
//!   fault-free run bit-for-bit and that a seed replays identically).
//!
//! # Quickstart
//!
//! ```
//! use recssd_serving::{
//!     LoadGen, LoadMode, SchedulePolicy, ServingConfig, ServingRuntime, SlsPath, TrafficSpec,
//! };
//! use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
//! use recssd_sim::SimDuration;
//!
//! let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo);
//! let mut rt = ServingRuntime::new(&cfg);
//! let table = rt.add_table(EmbeddingTable::procedural(
//!     TableSpec::new(512, 16, Quantization::F32),
//!     1,
//! ));
//!
//! let mut gen = LoadGen::new(
//!     &rt,
//!     vec![table],
//!     TrafficSpec { outputs: 2, lookups_per_output: 4, zipf_exponent: 1.2 },
//!     LoadMode::Closed { clients: 4, think: SimDuration::ZERO },
//!     7,
//! )
//! .with_verify_every(1);
//!
//! let verified = gen.run(&mut rt, SlsPath::Ndp(Default::default()), 16);
//! assert_eq!(verified, 16); // bit-identical to sls_reference
//! let e2e = rt.stats().e2e.quantiles();
//! assert_eq!(rt.stats().requests.get(), 16);
//! assert!(e2e.p99 >= e2e.p50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod loadgen;
mod policy;
mod runtime;
mod shard;
mod telemetry;

pub use loadgen::{LoadGen, LoadMode, TrafficSpec};
pub use policy::SchedulePolicy;
pub use runtime::{
    AdaptivePolicy, CompletedRequest, ExecMode, FaultPolicy, RequestId, ServedTableId,
    ServingConfig, ServingError, ServingRuntime,
};
pub use shard::{ShardMap, SlsPath};
pub use telemetry::{PathAttribution, ServingStats};

// Per-channel engine-pool knobs (`cfg.system.ssd.ftl.engines`), so
// serving consumers can enable in-SSD compute engines without a
// device-crate dependency.
pub use recssd::{EnginePoolConfig, MergePlacement};

pub use recssd_obs::{
    bottleneck_report, chrome_trace_json, coverage_report, critical_path_report,
    request_critical_paths, utilization_timelines, validate_spans, BottleneckReport, CoverageGap,
    CriticalPathReport, PathHeadroom, PathProfile, Phase, RequestCoverage, RequestProfile,
    ResourceKind, ResourceUse, SpanRec, TraceCheck, UtilWindow, UtilizationTimeline, WallPhase,
    WallPhaseReport,
};
