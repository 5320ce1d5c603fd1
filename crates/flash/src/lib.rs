//! NAND flash array model for the RecSSD reproduction.
//!
//! Models the flash subsystem of a Cosmos+ OpenSSD-class device at the level
//! the paper's results depend on:
//!
//! * **Geometry** ([`FlashGeometry`]): channels × dies × blocks × pages, with
//!   16 KB pages by default.
//! * **Timing** ([`FlashTiming`]): NAND array read (tR), program (tPROG),
//!   erase (tERASE) occupy a *die*; moving a page over the channel bus
//!   occupies the *channel*. Dies on one channel overlap their array
//!   operations; the shared bus serialises transfers, which is what caps a
//!   channel at ~10 K random-read IOPS as §5 of the paper reports.
//! * **Data** ([`PageStore`]): pages hold real bytes. Large preloaded
//!   regions (multi-GB embedding tables) can be backed by a [`PageOracle`]
//!   that synthesises page contents on demand, so simulating a 16 GB table
//!   image does not need 16 GB of host RAM.
//! * **Page images**: a completed read carries a pooled, reference-counted
//!   [`recssd_sim::PageImage`] the array filled in place — the only copy of
//!   that page the layers above ever see. An image is a whole page to the
//!   simulated device (the bus transfer is charged on
//!   [`FlashGeometry::page_bytes`]) and its *content* to the host: the
//!   array learns the extent before it takes a buffer
//!   ([`PageOracle::filled_prefix`], a written page's stored length), the
//!   image backs that much, and readers zero-extend
//!   ([`recssd_sim::PageImage::bytes_at`]). Whoever holds it last offers
//!   it back through [`FlashArray::recycle_page_buf`]; the next read of
//!   that size class refills it, clearing only the prefix the previous
//!   fill dirtied.
//!
//! The array is driven by the caller's event loop: [`FlashArray::submit`]
//! enqueues an operation and [`FlashArray::handle`] advances it when one of
//! the array's own [`FlashEvent`]s fires. The caller supplies a scheduling
//! closure which maps flash events into its global event queue.
//!
//! # Example
//!
//! ```
//! use recssd_flash::{FlashArray, FlashConfig, FlashEvent, FlashOp, Ppa};
//! use recssd_sim::EventQueue;
//!
//! let cfg = FlashConfig::cosmos_small();
//! let mut flash = FlashArray::new(cfg);
//! let mut queue: EventQueue<FlashEvent> = EventQueue::new();
//!
//! let ppa = Ppa { channel: 0, die: 0, block: 0, page: 0 };
//! flash
//!     .submit(
//!         queue.now(),
//!         FlashOp::Program { ppa, data: vec![7u8; 64].into() },
//!         &mut |delay, ev| queue.push_after(delay, ev),
//!     )
//!     .unwrap();
//! let mut done = Vec::new();
//! while let Some((now, ev)) = queue.pop() {
//!     let mut pending = Vec::new();
//!     if let Some(c) = flash.handle(now, ev, &mut |d, e| pending.push((d, e))) {
//!         done.push(c);
//!     }
//!     for (d, e) in pending {
//!         queue.push_after(d, e);
//!     }
//! }
//! assert_eq!(done.len(), 1);
//! assert_eq!(flash.page_bytes_prefix(ppa, 3), vec![7, 7, 7]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod fault;
mod geometry;
mod page_store;
mod timing;

pub use array::{
    FlashArray, FlashCompletion, FlashError, FlashEvent, FlashOp, FlashOpId, FlashOpKind,
    FlashStats,
};
pub use fault::{BrownoutWindow, FaultConfig, FaultPlan, FaultStats, ReadFault};
pub use geometry::{FlashGeometry, Ppa};
pub use page_store::{PageOracle, PageStore};
pub use timing::FlashTiming;

/// Full configuration of a flash array: geometry plus timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Physical organisation of the array.
    pub geometry: FlashGeometry,
    /// Operation latencies and bus speed.
    pub timing: FlashTiming,
}

impl FlashConfig {
    /// The Cosmos+ OpenSSD-like configuration used for all paper
    /// experiments: 8 channels, 16 KB pages, ~10 K IOPS per channel,
    /// ~1.3 GB/s aggregate sequential read.
    pub fn cosmos() -> Self {
        FlashConfig {
            geometry: FlashGeometry::cosmos(),
            timing: FlashTiming::cosmos(),
        }
    }

    /// A small geometry with Cosmos+ timing, convenient for unit tests
    /// (a few MiB of address space instead of hundreds of GB).
    pub fn cosmos_small() -> Self {
        FlashConfig {
            geometry: FlashGeometry {
                channels: 2,
                dies_per_channel: 2,
                blocks_per_die: 64,
                pages_per_block: 16,
                page_bytes: 16 * 1024,
            },
            timing: FlashTiming::cosmos(),
        }
    }
}
