//! Synthetic embedding-access traces for the RecSSD reproduction.
//!
//! The paper drives every evaluation with synthetic traces: "We instrument
//! the open-source synthetic trace generators from Facebook's open-sourced
//! DLRM with the locality analysis from industry-scale recommendation
//! systems... We generate exponential distributions based on a parameter
//! value, K. Sweeping K generates input traces with varying degrees of
//! locality; for instance, setting K equal to 0, 1, and 2 generates traces
//! with 13%, 54%, and 72% unique accesses respectively" (§5).
//!
//! * [`LocalityTrace`] — that generator: an LRU-stack re-reference model
//!   with exponentially distributed stack distances and a per-K fresh-id
//!   probability, calibrated to the paper's unique-access fractions *and*
//!   to the baseline host-LRU hit rates of Fig. 10 (84 % / 44 % / 28 % for
//!   K = 0/1/2 with a 2 K-entry cache).
//! * [`ZipfTrace`] — bounded Zipf/power-law ids, the stand-in for the
//!   proprietary production traces behind Figs. 3–4 (which the paper's
//!   artifact appendix marks non-reproducible).
//! * [`DriftingZipf`] — Zipf popularity whose rank→row mapping rotates or
//!   churns every phase: the drifting-skew regime that motivates *online*
//!   re-profiling and placement-plan refresh in the serving layer.
//! * [`patterns`] — the SEQ (contiguous ids) and STR (one page per id)
//!   microbenchmark patterns of Fig. 8.
//! * [`ArrivalProcess`] — Poisson / uniform inter-arrival gaps for the
//!   serving layer's open-loop load generation.
//! * [`analysis`] — reuse CDFs by page granularity (Fig. 3) and N-way LRU
//!   page-cache hit-rate sweeps (Fig. 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod arrivals;
mod drift;
mod locality;
mod lru_stack;
pub mod patterns;
mod zipf;

pub use arrivals::ArrivalProcess;
pub use drift::{DriftingZipf, RowStream};
pub use locality::{LocalityK, LocalityTrace};
pub use zipf::ZipfTrace;

/// Fraction of accesses in `ids` that touch a row for the first time.
///
/// # Example
///
/// ```
/// use recssd_trace::unique_fraction;
/// assert_eq!(unique_fraction(&[1, 1, 2, 3]), 0.75);
/// ```
pub fn unique_fraction(ids: &[u64]) -> f64 {
    if ids.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::HashSet::new();
    let uniques = ids.iter().filter(|&&id| seen.insert(id)).count();
    uniques as f64 / ids.len() as f64
}
