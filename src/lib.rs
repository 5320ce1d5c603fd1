//! Umbrella crate for the RecSSD reproduction: re-exports the full public
//! API so examples and downstream users can depend on one crate.
//!
//! See the [`recssd`] crate for the core library documentation, and the
//! repository's README / DESIGN.md / EXPERIMENTS.md for the system
//! overview and the per-figure reproduction record.
//!
//! ```
//! use recssd_suite::prelude::*;
//!
//! let mut sys = System::new(RecSsdConfig::small());
//! let spec = TableSpec::new(256, 16, Quantization::F32);
//! let img = TableImage::new(EmbeddingTable::procedural(spec, 0), PageLayout::Spread, 16 * 1024);
//! let table = sys.add_table(img);
//! let op = sys.submit(OpKind::ndp_sls(
//!     table,
//!     LookupBatch::new(vec![vec![1, 2, 250]]),
//!     SlsOptions::default(),
//! ));
//! sys.run_until_idle();
//! assert_eq!(sys.result(op).outputs.as_ref().unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use recssd;
pub use recssd_cache;
pub use recssd_embedding;
pub use recssd_flash;
pub use recssd_ftl;
pub use recssd_models;
pub use recssd_nvme;
pub use recssd_obs;
pub use recssd_placement;
pub use recssd_serving;
pub use recssd_sim;
pub use recssd_ssd;
pub use recssd_trace;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use recssd::{
        LookupBatch, NdpConfig, OpId, OpKind, OpResult, RecSsdConfig, SlsOptions, System, TableId,
    };
    pub use recssd_cache::{LruCache, StaticPartition, StaticPartitionBuilder};
    pub use recssd_embedding::{
        sls_reference, EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec,
    };
    pub use recssd_models::{
        BatchGen, EmbeddingMode, MlpSpec, ModelClass, ModelConfig, ModelInstance,
    };
    pub use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy, TablePlacement};
    pub use recssd_serving::{
        bottleneck_report, chrome_trace_json, critical_path_report, request_critical_paths,
        utilization_timelines, validate_spans, BottleneckReport, CriticalPathReport, LoadGen,
        LoadMode, PathAttribution, Phase, RequestProfile, SchedulePolicy, ServingConfig,
        ServingRuntime, ShardMap, SlsPath, SpanRec, TraceCheck, TrafficSpec, UtilizationTimeline,
        WallPhaseReport,
    };
    pub use recssd_sim::{SimDuration, SimTime};
    pub use recssd_trace::{ArrivalProcess, LocalityK, LocalityTrace, ZipfTrace};
}
