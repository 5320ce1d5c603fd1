//! Embedding tables for the RecSSD reproduction.
//!
//! Recommendation models process categorical features through embedding
//! tables: "each row is a unique embedding vector typically comprising 16,
//! 32, or 64 learned features"; per inference a set of rows is gathered
//! and aggregated (§2.1 of the paper). This crate provides:
//!
//! * [`TableSpec`] / [`EmbeddingTable`] — table shapes with f32, f16 or
//!   int8 row storage ([`Quantization`], swept in Fig. 11a) and either
//!   in-memory or *procedural* (hash-generated) contents, so a 1 M-row
//!   table costs no RAM.
//! * [`TableImage`] — the on-SSD byte layout of a table:
//!   [`PageLayout::Spread`] places one vector per 16 KB flash page (the
//!   model-evaluation layout of §5: "we assume a single embedding vector
//!   per SSD page of 16KB") while [`PageLayout::Dense`] packs pages full
//!   (the microbenchmark layout where SEQ/STR access patterns differ).
//!   `TableImage` implements the flash [`PageOracle`] so tables bulk-load
//!   into the simulated device without materialising.
//! * [`sls_reference`] — the golden SparseLengthsSum every accelerated
//!   path (baseline SSD, NDP, cached, partitioned) must reproduce.
//!
//! Procedural table values are multiples of 2⁻⁶ in (−2, 2), which makes
//! f32 summation *exact* regardless of accumulation order — so tests can
//! require bit-identical results between the DRAM reference and the NDP
//! path even though they accumulate in different orders.
//!
//! The same grid makes procedural rows cheap to keep: an element is k/64
//! with |k| ≤ 127, so one `i8` *code* per element is the row, exactly.
//! Every whole-row read of a procedural row of 256 to 16 384 elements
//! (page fills, DRAM gathers, [`sls_reference`]) goes through a
//! per-thread memo of codes keyed by `(seed, source row)`, so a hot wide
//! row is hashed once and then served by converting its codes. Narrower
//! rows skip it, since a probe would cost too large a share of their
//! synthesis. The memo holds a fixed 1 MiB of codes, swept by CLOCK, plus
//! a small index; it is allocated on the thread's first wide row, lives
//! as long as the thread (so a second pass over the same rows starts
//! warm) and allocates nothing once warm. [`row_memo_stats`] reads the
//! calling thread's hit and miss counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod layout;
mod memo;
pub mod quant;
mod sls;
mod table;

pub use layout::{PageLayout, TableImage, TableImageOracle};
pub use memo::{row_memo_stats, RowMemoStats};
pub use quant::Quantization;
pub use recssd_flash::PageOracle;
pub use sls::{sls_reference, sls_reference_into, sls_reference_with, LookupBatch, PerOutput};
pub use table::{EmbeddingTable, RowScratch, TableId, TableSource, TableSpec};
