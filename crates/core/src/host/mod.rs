//! The host side of RecSSD: the simulated host system and its SLS
//! operator implementations.

mod system;

pub use system::{OpId, OpKind, OpResult, SlsOptions, SlsPath, System};
