//! Cache building blocks for the RecSSD reproduction.
//!
//! The paper leans on four caching structures, all implemented here:
//!
//! * [`LruCache`] — a fully associative LRU cache. The baseline system
//!   keeps a "fully associative LRU software cache" of embedding vectors in
//!   host DRAM (§4.2), and the FTL's internal page cache uses the same
//!   structure.
//! * [`SetAssocCache`] — an N-way set-associative LRU cache, used for the
//!   16-way 4 KB page-cache characterisation of Figure 4.
//! * [`DirectMappedCache`] — the SSD-side embedding cache. §4.2 explains
//!   why: the FTL runs on a weak embedded CPU without dynamic memory
//!   allocation, so RecSSD implements "a direct-mapped SSD-side DRAM
//!   cache" rather than paying LRU bookkeeping on every access.
//! * [`StaticPartition`] — the profile-guided host-DRAM partition of hot
//!   embedding rows (§4.2 "static partitioning technique utilizing input
//!   data profiling").
//!
//! All caches record [`HitStats`] so experiments can report the hit rates
//! the paper annotates above its bars.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod direct;
mod lru;
mod partition;
mod set_assoc;

pub use direct::DirectMappedCache;
pub use lru::LruCache;
pub use partition::{StaticPartition, StaticPartitionBuilder};
pub use recssd_sim::stats::HitStats;
pub use set_assoc::SetAssocCache;
