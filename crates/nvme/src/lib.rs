//! NVMe interface model for the RecSSD reproduction.
//!
//! Provides the pieces of the NVMe protocol the paper's design touches:
//!
//! * [`NvmeCommand`] — read/write commands addressing 16 KB logical
//!   blocks, plus the single spare command bit RecSSD claims: "our custom
//!   interface maintains complete compatibility with the existing NVMe
//!   protocol, utilizing a single unused command bit to indicate embedding
//!   commands" (§4.3). An NDP *write-like* command carries the SLS
//!   configuration; an NDP *read-like* command collects result pages. The
//!   request id is embedded in the starting LBA exactly as §4.3 describes.
//! * [`QueuePair`] — bounded submission/completion rings. The UNVMe-style
//!   host driver polls completions; multiple I/O queues let SLS worker
//!   threads drive the device concurrently (§4.2 "We match our SLS worker
//!   count to the number of independent available I/O queues").
//! * [`PcieLink`] — a shared, serialising DMA resource with Gen2 ×8-class
//!   bandwidth. Every payload moved between host and device occupies the
//!   link; this is the "round-trip data communication overhead" that NDP
//!   avoids by returning only reduced vectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pcie;
mod queue;
mod types;

pub use pcie::{PcieConfig, PcieEvent, PcieLink, PcieStats};
pub use queue::{QueueError, QueuePair};
pub use types::{CmdData, NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
