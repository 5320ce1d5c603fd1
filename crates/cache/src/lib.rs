//! Cache building blocks for the RecSSD reproduction.
//!
//! The paper leans on four caching structures; two are implemented
//! here:
//!
//! * [`LruCache`] — a fully associative LRU cache. The baseline system
//!   keeps a "fully associative LRU software cache" of embedding vectors in
//!   host DRAM (§4.2), and the FTL's internal page cache uses the same
//!   structure.
//! * [`StaticPartition`] — the profile-guided host-DRAM partition of hot
//!   embedding rows (§4.2 "static partitioning technique utilizing input
//!   data profiling").
//!
//! The third, the direct-mapped SSD-side embedding cache, is a tag array
//! inside the NDP engine of `recssd`: §4.2 chose direct mapping because
//! the FTL's weak embedded CPU cannot afford LRU bookkeeping on every
//! access. The fourth, the 16-way 4 KB page cache of the Figure 4
//! characterisation, is a key-only set-associative LRU private to
//! `recssd_trace::analysis::page_cache_sweep`.
//!
//! All caches record [`HitStats`] so experiments can report the hit rates
//! the paper annotates above its bars.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lru;
mod partition;

pub use lru::LruCache;
pub use partition::{StaticPartition, StaticPartitionBuilder};
pub use recssd_sim::stats::HitStats;
