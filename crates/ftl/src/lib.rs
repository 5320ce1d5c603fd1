//! Flash translation layer (FTL) for the RecSSD reproduction.
//!
//! Models the GreedyFTL firmware of the Cosmos+ OpenSSD, which RecSSD's
//! artifact modifies. The FTL exposes a logical page space over the raw
//! NAND array and performs the four classic duties §2.2 of the paper lists:
//!
//! 1. **Indirect mapping** between logical and physical pages
//!    ([`MappingTable`]), with identity-mapped *preloaded* regions for bulk
//!    embedding-table images.
//! 2. **Log-structured writes** ([`BlockAllocator`]): pages are appended to
//!    open blocks striped round-robin across channels and dies, and
//!    overwrites invalidate the stale physical page.
//! 3. **Garbage collection**: a greedy policy picks the block with the
//!    fewest valid pages, relocates the survivors and erases the victim —
//!    fully asynchronous, competing with foreground traffic for the flash.
//! 4. **Wear leveling**: free blocks are handed out lowest-erase-count
//!    first; per-block erase counts are tracked.
//!
//! On top of those, the FTL owns the two shared firmware resources the
//! RecSSD design interacts with:
//!
//! * an LRU **page cache** in SSD DRAM ([`GreedyFtl::read_page`] serves
//!   hits synchronously), and
//! * the **firmware core** ([`GreedyFtl::charge`]), a serial task
//!   queue modelling the embedded CPU. Both baseline NVMe command
//!   processing and RecSSD's NDP "Translation" computation execute on it,
//!   which is exactly why Fig. 8 of the paper shows Translation consuming
//!   roughly half of the FTL time: the embedded core is slow.
//!
//! Like the flash layer, the FTL is event-driven: route its [`FtlEvent`]s
//! back into [`GreedyFtl::handle`] and consume the returned
//! [`FtlOutcome`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod config;
mod firmware;
mod ftl_impl;
mod map;

pub use alloc::BlockAllocator;
pub use config::FtlConfig;
pub use firmware::{EnginePoolConfig, FwTag, MergePlacement};
pub use ftl_impl::{FtlError, FtlEvent, FtlOutcome, FtlStats, GreedyFtl, ReadStarted};
pub use map::MappingTable;

use std::fmt;

/// A logical page number: the host-visible block address space, in units of
/// one flash page (16 KB by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lpn(pub u64);

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpn:{}", self.0)
    }
}
