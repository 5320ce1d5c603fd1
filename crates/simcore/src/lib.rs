//! Discrete-event simulation kernel for the RecSSD reproduction.
//!
//! Every hardware component in this workspace (NAND flash channels, the FTL
//! firmware loop, the NVMe frontend, the host CPU model) advances a single
//! shared *virtual clock* measured in nanoseconds. This crate provides the
//! building blocks they share:
//!
//! * [`SimTime`] / [`SimDuration`] — newtypes for instants and spans on the
//!   virtual clock (nanosecond resolution).
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with FIFO tie-breaking, so simulations are exactly reproducible.
//! * [`stats`] — counters, hit/miss statistics and log-scale histograms
//!   used to report the paper's figures.
//! * [`rng`] — small, dependency-free deterministic generators
//!   (SplitMix64 / xoshiro256**) so traces and table contents are stable
//!   across platforms and toolchain versions.
//! * [`hash`] — the Fx multiply-xor hash plus [`hash::FxHashMap`] /
//!   [`hash::FxHashSet`] aliases for the simulator's hot maps, which key
//!   on small integers and need neither SipHash's DoS hardening nor its
//!   per-process random seed.
//! * [`PageImage`] — the pooled, reference-counted image of one flash page
//!   that every layer from the flash die to the host reader shares instead
//!   of copying. It backs the bytes the page contains and reads as zeros
//!   past them; [`PagePool`] keeps the free images, one list per size
//!   class.
//! * [`Server`] — the FIFO single server every timed device resource
//!   (firmware core, SLS engines, PCIe link, flash dies and channels) is
//!   an instance of: one queue discipline, busy time counted at service
//!   start, debug-asserted monotone time and exact completion instants.
//! * [`Slots`] — the k-slot server every shared-queue pool (the host's
//!   SLS and NN worker pools, the serving runtime's per-shard operator
//!   slots) is an instance of: a slot is held from acquire to release,
//!   and busy time is the held-count integral.
//! * [`LruCache`] — a fully associative LRU cache: the baseline's "fully
//!   associative LRU software cache" of embedding vectors in host DRAM
//!   (§4.2), and the FTL's internal page cache.
//! * [`StaticPartition`] — the profile-guided host-DRAM partition of hot
//!   embedding rows (§4.2 "static partitioning technique utilizing input
//!   data profiling"), built by [`StaticPartitionBuilder`].
//!
//! Those are two of the paper's four caches. The third, the
//! direct-mapped SSD-side embedding cache, is a tag array
//! inside the NDP engine of `recssd`: §4.2 chose direct mapping because
//! the FTL's weak embedded CPU cannot afford LRU bookkeeping on every
//! access. The fourth, the 16-way 4 KB page cache of the Figure 4
//! characterisation, is a key-only set-associative LRU private to
//! `recssd_trace::analysis::page_cache_sweep`.
//!
//! All caches record [`stats::HitStats`] so experiments can report the
//! hit rates the paper annotates above its bars.
//!
//! # Example
//!
//! ```
//! use recssd_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { PageReadDone(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push_after(SimDuration::from_us(60), Ev::PageReadDone(7));
//! let (t, ev) = q.pop().expect("one event pending");
//! assert_eq!(t, SimTime::from_us(60));
//! assert_eq!(ev, Ev::PageReadDone(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lru;
mod page;
mod partition;
mod queue;
mod server;
mod slots;
mod time;

pub mod alloc_count;
pub mod hash;
pub mod rng;
pub mod stats;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lru::LruCache;
pub use page::{PageImage, PagePool};
pub use partition::{StaticPartition, StaticPartitionBuilder};
pub use queue::EventQueue;
pub use server::Server;
pub use slots::Slots;
pub use time::{SimDuration, SimTime};
