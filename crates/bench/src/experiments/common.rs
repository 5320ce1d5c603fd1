//! Shared experiment plumbing.

use recssd::{LookupBatch, RecSsdConfig, System, TableId};
use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};
use recssd_sim::rng::Xoshiro256;

/// A full-scale (Cosmos+) system, with an optional SSD-side embedding
/// cache of `embed_cache_slots`.
pub fn cosmos_system(embed_cache_slots: usize) -> System {
    let mut cfg = RecSsdConfig::cosmos();
    cfg.ndp = cfg.ndp.with_embed_cache(embed_cache_slots);
    System::new(cfg)
}

/// Registers one procedural table.
pub fn add_table(
    sys: &mut System,
    rows: u64,
    dim: usize,
    quant: Quantization,
    layout: PageLayout,
    seed: u64,
) -> TableId {
    let page = sys.config().ssd.block_bytes();
    sys.add_table(TableImage::new(
        EmbeddingTable::procedural(TableSpec::new(rows, dim, quant), seed),
        layout,
        page,
    ))
}

/// A uniform-random batch of `outputs × lookups` ids.
pub fn uniform_batch(
    rng: &mut Xoshiro256,
    rows: u64,
    outputs: usize,
    lookups: usize,
) -> LookupBatch {
    LookupBatch::uniform(outputs, lookups, || rng.gen_range(0..rows))
}

/// Formats a microsecond value with 1 decimal.
pub fn us(d: recssd_sim::SimDuration) -> String {
    format!("{:.1}", d.as_us_f64())
}

/// Formats a millisecond value with 3 decimals.
pub fn ms(d: recssd_sim::SimDuration) -> String {
    format!("{:.3}", d.as_ms_f64())
}

/// Formats a ratio with 2 decimals.
pub fn x(ratio: f64) -> String {
    format!("{ratio:.2}")
}

/// Formats a rate as a percentage.
pub fn pct(rate: f64) -> String {
    format!("{:.0}%", rate * 100.0)
}
