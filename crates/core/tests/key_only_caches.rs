//! What the two embedding caches cost the host, measured: the baseline's
//! host LRU and the SSD-side cache model *simulated* DRAM, so they record
//! which rows they hold and a hit decodes its row from where the bytes
//! live — the table image, the page's current content. Full of 2 KB rows,
//! both together stand for 20 MiB of simulated DRAM; a vector copy
//! anywhere in either fails the bound by an order of magnitude.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test pollutes the process-global counters.

use recssd::{LookupBatch, OpKind, RecSsdConfig, SlsOptions, System};
use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};
use recssd_sim::alloc_count::{live_bytes, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn full_embedding_caches_hold_keys_not_vectors() {
    const DIM: usize = 512;
    const SSD_SLOTS: usize = 8192;
    const HOST_ENTRIES: usize = 2048;
    const PER_REQUEST: u64 = 256;
    // Four rows a slot: the direct-mapped cache ends ~98 % occupied.
    const ROWS: u64 = 4 * SSD_SLOTS as u64;
    let mut cfg = RecSsdConfig::cosmos();
    cfg.ndp = cfg.ndp.with_embed_cache(SSD_SLOTS);
    // A small FTL page cache keeps the pages' own (content-sized) cost,
    // which `resident_bytes.rs` bounds, out of this measurement.
    cfg.ssd.ftl.page_cache_pages = 64;
    let mut sys = System::new(cfg);
    let page_bytes = sys.config().ssd.block_bytes();
    let spec = TableSpec::new(ROWS, DIM, Quantization::F32);
    let table = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, 1),
        PageLayout::Spread,
        page_bytes,
    ));
    sys.enable_host_cache(table, HOST_ENTRIES);
    let host_lru = SlsOptions {
        use_host_cache: true,
        ..SlsOptions::default()
    };

    let before = live_bytes();
    let mut round = |kind: OpKind| {
        let op = sys.submit(kind);
        sys.run_until_idle();
        let result = sys.take_result(op);
        assert!(result.is_ok());
        sys.recycle_outputs(result.outputs.expect("an SLS operator has outputs"));
    };
    for first in (0..ROWS).step_by(PER_REQUEST as usize) {
        let batch = LookupBatch::new(vec![(first..first + PER_REQUEST).collect()]);
        round(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    }
    for first in (0..2 * HOST_ENTRIES as u64).step_by(PER_REQUEST as usize) {
        let batch = LookupBatch::new(vec![(first..first + PER_REQUEST).collect()]);
        round(OpKind::baseline_sls(table, batch, host_lru));
    }
    let grown = live_bytes().saturating_sub(before);

    let ssd = sys.device().engine().stats().embed_cache;
    assert_eq!(
        ssd.misses(),
        ROWS,
        "every row was gathered and recorded once"
    );
    let host = sys.host_cache_stats(table).expect("enabled");
    assert_eq!(host.misses(), 2 * HOST_ENTRIES as u64, "the LRU is full");
    let vector_bytes = ((SSD_SLOTS + HOST_ENTRIES) * spec.row_bytes()) as u64;
    assert!(
        grown * 10 < vector_bytes,
        "caches standing for {vector_bytes} B of simulated DRAM left {grown} B of heap behind"
    );
}
