//! **RecSSD**: near-data processing for SSD-based recommendation
//! inference — the core library of this reproduction.
//!
//! RecSSD offloads the SparseLengthsSum (SLS) embedding operator into the
//! SSD's FTL firmware. One NVMe *config-write* command (distinguished by a
//! spare command bit) ships a sorted list of `(input id, result id)` pairs
//! to the device; the firmware schedules every needed flash-page read
//! across the SSD's internal channels, extracts and accumulates the
//! embedding vectors on the embedded CPU ("Translation"), and a companion
//! *result-read* command returns only the reduced vectors. Compared to a
//! conventional SSD this (a) removes the per-command firmware cost that
//! caps host-visible random reads, (b) exploits the full internal flash
//! parallelism, and (c) stops shipping 16 KB pages over PCIe to use 128
//! bytes of them.
//!
//! The crate has two halves, mirroring the paper's artifact:
//!
//! * [`ndp`] — the firmware side (the RecSSD-OpenSSDFirmware analogue):
//!   [`NdpSlsEngine`] plugs into the simulated device's FTL via the
//!   [`recssd_ssd::NdpEngine`] hook and implements the six-step request
//!   lifetime of Fig. 7, the pending-SLS-request buffer, and the
//!   direct-mapped SSD-side embedding cache.
//! * [`host`] — the host side (the RecSSD-UNVMeDriver + RecSSD-RecInfra
//!   analogue): [`System`] owns the simulated device and a host CPU model,
//!   and runs an [`OpKind::Sls`] operator on each of the three paths the
//!   paper compares — [`SlsPath::Dram`] (embeddings in host DRAM),
//!   [`SlsPath::Baseline`] (conventional NVMe reads + host-side
//!   accumulation + optional host LRU vector cache) and [`SlsPath::Ndp`]
//!   (the offload, with optional static partitioning of hot rows into
//!   host DRAM).
//!
//! # Quickstart
//!
//! ```
//! use recssd::{OpKind, RecSsdConfig, SlsOptions, System};
//! use recssd_embedding::{EmbeddingTable, LookupBatch, PageLayout, Quantization, TableImage, TableSpec};
//!
//! let mut sys = System::new(RecSsdConfig::small());
//! let spec = TableSpec::new(1_000, 32, Quantization::F32);
//! let image = TableImage::new(EmbeddingTable::procedural(spec, 1), PageLayout::Spread, 16 * 1024);
//! let table = sys.add_table(image);
//!
//! let batch = LookupBatch::new(vec![vec![1, 500, 900], vec![42, 42]]);
//! let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
//! let dram = sys.submit(OpKind::dram_sls(table, batch));
//! sys.run_until_idle();
//!
//! // The offloaded result is bit-identical to the DRAM reference.
//! assert_eq!(sys.result(ndp).outputs, sys.result(dram).outputs);
//! // And the simulation reports the virtual-time latency of each.
//! assert!(sys.result(ndp).latency() > recssd_sim::SimDuration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod host;
pub mod ndp;
mod pages;
mod proto;
mod tables;

pub use config::{HostConfig, NdpConfig, RecSsdConfig};
pub use host::{OpId, OpKind, OpResult, SlsOptions, SlsPath, System};
pub use ndp::{NdpSlsEngine, NdpStats, SlsRequestReport};
pub use proto::{DeviceError, SlsConfig, SlsConfigError, SlsOutput};
pub use tables::{TableBinding, TableRegistry};

pub use recssd_embedding::{LookupBatch, TableId};
pub use recssd_flash::{BrownoutWindow, FaultConfig, FaultPlan, FaultStats};
// Per-channel engine-pool knobs, so hosts can switch on in-SSD compute
// engines (`cfg.ssd.ftl.engines`) without a device-crate dependency.
pub use recssd_obs::{SpanId, TraceSink, Tracer};
pub use recssd_ssd::{EnginePoolConfig, MergePlacement};
