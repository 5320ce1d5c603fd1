//! The firmware side of RecSSD: the NDP SLS engine installed in the FTL.

mod engine;

pub use engine::{NdpSlsEngine, NdpStats, SlsRequestReport};
