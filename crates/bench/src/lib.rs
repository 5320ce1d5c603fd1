//! Paper-figure harness: regenerates every table and figure of the RecSSD
//! paper's evaluation. (The repository's performance benchmark is the
//! separate `benchmark/` package; besides the figures this crate holds only
//! the criterion micros in `benches/`.)
//!
//! Each experiment lives in [`experiments`] and returns a [`Series`] — the
//! same rows/series the paper's figure reports. Run them all with:
//!
//! ```text
//! cargo run -p recssd-bench --release --bin figures -- all
//! ```
//!
//! or individually (`figures -- fig8`). By default experiments run at a
//! reduced *quick* scale; set `RECSSD_PAPER_SCALE=1` for the paper-scale
//! parameters (1 M-row tables, more repetitions). §6.4 of the paper notes
//! "absolute table size does not impact our results ... embedding lookup
//! performance is dependant on access patterns, not absolute table size",
//! which is what makes the quick scale representative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
mod series;

pub use series::Series;

/// Experiment sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows per embedding table for model experiments.
    pub model_rows: u64,
    /// Warm-up inferences before measuring.
    pub warmup: usize,
    /// Measured inferences averaged per data point.
    pub reps: usize,
    /// Length of characterisation traces (Figs. 3–4).
    pub trace_len: usize,
}

impl Scale {
    /// Reduced scale for CI and quick runs.
    pub fn quick() -> Self {
        Scale {
            model_rows: 200_000,
            warmup: 1,
            reps: 2,
            trace_len: 150_000,
        }
    }

    /// The paper's parameters (§5: 1 M-row tables, steady-state averages).
    pub fn paper() -> Self {
        Scale {
            model_rows: 1_000_000,
            warmup: 2,
            reps: 5,
            trace_len: 500_000,
        }
    }

    /// `paper()` if `RECSSD_PAPER_SCALE=1` is set, else `quick()`.
    pub fn from_env() -> Self {
        if std::env::var("RECSSD_PAPER_SCALE").as_deref() == Ok("1") {
            Scale::paper()
        } else {
            Scale::quick()
        }
    }
}
