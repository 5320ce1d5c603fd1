//! The assembled SSD device simulator.
//!
//! Wires the substrate crates into one event-driven device modelled on the
//! Cosmos+ OpenSSD the paper prototypes on:
//!
//! ```text
//!  host ──QueuePair──▶ frontend ──fw:core─▶ GreedyFtl ──▶ FlashArray
//!        ◀─PcieLink──  (commands)  (firmware)  (mapping,     (channels,
//!                                              page cache)    dies)
//! ```
//!
//! A conventional **read** command costs: per-command firmware processing
//! (the serial embedded CPU — this is what caps the baseline's host-visible
//! random-read IOPS, §3.2), flash page reads through the FTL (page-cache
//! hits skip flash), one PCIe DMA of the full pages back to the host, and a
//! completion. A **write** command DMAs the payload in, charges firmware,
//! and programs pages through the log-structured write path.
//!
//! # Completion routing
//!
//! Every FTL, firmware and PCIe completion returns the tag its caller
//! supplied: [`recssd_ftl::FtlOutcome::tag`] for page reads, page writes
//! and firmware charges, the value [`recssd_nvme::PcieLink::handle`]
//! returns for DMAs. The device tags all of a conventional command's work
//! with the command's fetch counter and finds a read page's slot as
//! `lpn − slba`; the NDP engine tags its own work with [`EXT_TAG_BIT`]
//! set, and the device routes each completion by that bit alone. No layer
//! mints an id its caller must map back.
//!
//! # One image per page
//!
//! The simulator itself moves no page bytes along that path. The flash
//! array fills a pooled [`recssd_sim::PageImage`] in place; the FTL caches
//! and forwards clones of the same reference-counted image; the device
//! collects one image per logical block of a read command — the shared
//! all-zero image for unmapped blocks — and completes the command with
//! that list ([`recssd_nvme::CmdData::Pages`], the analogue of a PRP/SGL
//! list). An image backs the bytes its page contains (one 128 B vector of
//! a spread-layout table page; nothing at all for the zero image) and
//! reads as zeros past them, so host memory follows content while every
//! simulated size follows the geometry: the DMA still charges
//! `nlb × block_bytes` of PCIe time, the page cache still holds
//! `page_cache_pages` pages. The host
//! reads rows out of image `k` and returns the list through
//! [`SsdDevice::recycle_buffer`], which offers each image back to the FTL;
//! the last holder to let go (a reader, or the page cache on eviction)
//! retires it to the flash array's pool for the next read to refill. A
//! command that fails returns whatever images it had collected the same
//! way. Writes stage their payload in one pooled image shared by the write
//! buffer, the page cache and the program operation. NDP result blocks and
//! command payloads are the only flat buffers left
//! ([`recssd_nvme::CmdData::Flat`]), pooled by capacity.
//!
//! Commands with the spare NDP bit set are handed to a pluggable
//! [`NdpEngine`] — the hook where the `recssd` crate installs the paper's
//! SLS offload. The default engine ([`NoNdp`]) fails such commands with
//! `InvalidField`, which is exactly how a COTS drive behaves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod device;
mod extension;

pub use config::SsdConfig;
pub use device::{SsdDevice, SsdEvent, SsdStats};
pub use extension::{DeviceCtx, NdpEngine, NoNdp, EXT_TAG_BIT};
// Re-exported so device-level callers can switch on the per-channel
// engine pool (`cfg.ftl.engines`) without depending on the FTL crate.
pub use recssd_ftl::{EnginePoolConfig, MergePlacement};
