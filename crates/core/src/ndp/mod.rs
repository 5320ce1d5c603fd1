//! The firmware side of RecSSD: the NDP SLS engine installed in the FTL.

mod engine;
mod partials;

pub use engine::{NdpSlsEngine, NdpStats, SlsRequestReport};
pub use partials::EnginePartials;
