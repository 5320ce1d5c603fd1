//! One module per paper table/figure. Each `run(scale)` regenerates the
//! corresponding rows/series; each module's docs quote the paper's claim
//! and its tests hold the figure's shape (README "Figures and
//! microbenchmarks" runs them).

pub mod ablations;
pub mod fig03_reuse_cdf;
pub mod fig04_page_cache;
pub mod fig05_sls_dram_vs_ssd;
pub mod fig06_e2e_dram_vs_ssd;
pub mod fig08_sls_breakdown;
pub mod fig09_naive_ndp;
pub mod fig10_caching;
pub mod fig11_sensitivity;
pub mod table1_params;

mod common;

pub use common::*;
