//! **recssd-placement**: frequency-profiled hot/cold placement of
//! embedding rows across a hybrid DRAM + NDP-SSD hierarchy.
//!
//! RecSSD's headline wins ride on the extreme popularity skew of
//! embedding accesses (§3.1 of the paper: power-law row popularity).
//! Two placement levers follow, and this crate computes both from one
//! profiling pass:
//!
//! * **Hot tier** — the top-k most frequently accessed rows of each
//!   table are pinned in host DRAM (the §4.2 static-partitioning idea,
//!   generalised from a per-operator split to a serving-tier plan built
//!   on [`recssd_sim::StaticPartition`]). A skewed trace concentrates
//!   most lookups on a small hot set, so a tiny DRAM budget absorbs a
//!   large traffic fraction.
//! * **Cold-tail page packing** — the remaining rows are laid out on
//!   flash in *descending heat order*, so the co-hot part of the cold
//!   tail shares flash pages (RecFlash's frequency-based data mapping).
//!   Under a dense layout this concentrates residual page traffic on few
//!   pages and raises the FTL page-cache hit rate.
//!
//! The pipeline: feed access streams (e.g. [`recssd_trace::ZipfTrace`])
//! into a [`FreqProfiler`], build a [`PlacementPlan`] under a
//! [`PlacementPolicy`], and hand each [`TablePlacement`] to the serving
//! layer (`ServingRuntime::add_table_placed` in `recssd-serving`), which
//! routes hot lookups to its DRAM tier and cold lookups to packed
//! per-shard device images.
//!
//! Plans are also built *online*: the profiler doubles as a decayed
//! (EWMA) accumulator over live request streams
//! ([`FreqProfiler::decay`] / [`FreqProfiler::merge`]), and
//! [`allocate_global_budget`] splits one global DRAM row budget across
//! tables by marginal hit rate instead of a fixed per-table fraction.
//! The serving runtime's adaptive loop builds on the profiler and the
//! budget allocator and refreshes one [`TablePlacement`] at a time: it
//! numbers plan generations itself and derives each refresh's
//! promote/demote rows (the migration work) by comparing the new
//! placement's hot rows with the routing of the plan it replaces.
//!
//! # Example
//!
//! ```
//! use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
//! use recssd_trace::ZipfTrace;
//!
//! let mut prof = FreqProfiler::new();
//! let t = prof.add_table(4096);
//! let mut zipf = ZipfTrace::new(4096, 1.2, 7);
//! prof.profile_stream(t, (0..100_000).map(|_| zipf.next_id()));
//!
//! let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.1));
//! let p = plan.table(t);
//! assert_eq!(p.hot_count(), 410); // 10% of 4096 rows pinned hot
//! // The hot set absorbs far more than 10% of a skewed stream.
//! assert!(p.expected_hit_rate() > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod dense;
mod plan;
mod profile;

pub use plan::{
    allocate_global_budget, BudgetScratch, PlacementPlan, PlacementPolicy, TablePlacement,
};
pub use profile::{FreqProfiler, TableHeat};
