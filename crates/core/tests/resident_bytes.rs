//! What a cached flash page costs the host, measured: a page image backs
//! the bytes its page *contains*, so a full 4 096-page Cosmos+ FTL cache of
//! one-vector pages is half a megabyte of heap, not the 64 MiB of its
//! simulated capacity. A counting global allocator reads the live heap
//! around the gather; a full-page image anywhere on the read path — the
//! cache, the pool behind it — fails the bound by an order of magnitude.
//!
//! The counters read are the test thread's own, so the harness's other
//! threads do not pollute them.

use recssd::{LookupBatch, OpKind, RecSsdConfig, SlsOptions, System};
use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};
use recssd_sim::alloc_count::{live_bytes, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_full_page_cache_of_one_vector_pages_stays_content_sized() {
    const ROWS: u64 = 8192;
    const PER_REQUEST: u64 = 128;
    let mut sys = System::new(RecSsdConfig::cosmos());
    let page_bytes = sys.config().ssd.block_bytes();
    let cache_pages = sys.config().ssd.ftl.page_cache_pages;
    // Spread layout: one 128 B vector a 16 KB page.
    let table = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(TableSpec::new(ROWS, 32, Quantization::F32), 1),
        PageLayout::Spread,
        page_bytes,
    ));

    let before = live_bytes();
    // Every row once: twice the cache's capacity in distinct pages, so it
    // ends full and the image pool has taken its evictions.
    for first in (0..ROWS).step_by(PER_REQUEST as usize) {
        let batch = LookupBatch::new(vec![(first..first + PER_REQUEST).collect()]);
        let op = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        let result = sys.take_result(op);
        assert!(result.is_ok());
        sys.recycle_outputs(result.outputs.expect("an SLS operator has outputs"));
    }
    let grown = live_bytes().saturating_sub(before);

    let ftl = sys.device().ftl();
    assert_eq!(ftl.cached_pages(), cache_pages, "the page cache is full");
    assert!(ftl.flash().page_images_pooled() > 0, "the pool has churned");
    assert!(
        cache_pages * page_bytes >= 64 << 20,
        "full-page images would need {} MiB for the cache alone",
        (cache_pages * page_bytes) >> 20
    );
    assert!(
        grown < 8 << 20,
        "gathering {ROWS} one-vector pages left {grown} B of heap behind"
    );
}
