//! Cache building blocks for the RecSSD reproduction.
//!
//! The paper leans on four caching structures; three are implemented
//! here:
//!
//! * [`LruCache`] — a fully associative LRU cache. The baseline system
//!   keeps a "fully associative LRU software cache" of embedding vectors in
//!   host DRAM (§4.2), and the FTL's internal page cache uses the same
//!   structure.
//! * [`SetAssocCache`] — an N-way set-associative LRU cache, used for the
//!   16-way 4 KB page-cache characterisation of Figure 4.
//! * [`StaticPartition`] — the profile-guided host-DRAM partition of hot
//!   embedding rows (§4.2 "static partitioning technique utilizing input
//!   data profiling").
//!
//! The fourth, the direct-mapped SSD-side embedding cache, is a tag array
//! inside the NDP engine of `recssd`: §4.2 chose direct mapping because
//! the FTL's weak embedded CPU cannot afford LRU bookkeeping on every
//! access.
//!
//! All caches record [`HitStats`] so experiments can report the hit rates
//! the paper annotates above its bars.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lru;
mod partition;
mod set_assoc;

pub use lru::LruCache;
pub use partition::{StaticPartition, StaticPartitionBuilder};
pub use recssd_sim::stats::HitStats;
pub use set_assoc::SetAssocCache;
