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

/// The host LRU's per-key cost: a full 2 048-key cache of `u64` keys and
/// unit values — the baseline's per-table host cache — holds at most
/// 28 bytes a key (a 16-byte node and an index at most half full; 66
/// with a hash map over a slab of optional nodes).
#[test]
fn a_full_host_lru_holds_at_most_28_bytes_a_key() {
    const KEYS: u64 = 2048;
    let before = live_bytes();
    let mut cache = recssd_sim::LruCache::new(KEYS as usize);
    for key in 0..2 * KEYS {
        cache.insert(key * 7919, ());
    }
    assert_eq!(cache.len(), KEYS as usize);
    let per_key = (live_bytes() - before) as f64 / KEYS as f64;
    assert!(per_key <= 28.0, "{per_key:.1} B a key");
}

/// What preloading costs the host: adding 32 tables of 200 000 one-vector
/// F32 pages (RMC2's tables in `model-zoo`, ≈ 25 000 blocks) to a full-size
/// Cosmos+ system grows the live heap by at most 64 KB. The flash array
/// and the FTL keep the preloaded page ranges, not an entry per block
/// (863 776 B with one write-pointer and one reservation hash entry a
/// block).
#[test]
fn preloading_32_tables_keeps_no_per_block_state() {
    let mut sys = System::new(RecSsdConfig::cosmos());
    let page_bytes = sys.config().ssd.block_bytes();
    let images: Vec<TableImage> = (0..32)
        .map(|t| {
            TableImage::new(
                EmbeddingTable::procedural(TableSpec::new(200_000, 32, Quantization::F32), t),
                PageLayout::Spread,
                page_bytes,
            )
        })
        .collect();
    assert_eq!(images[0].pages(), 200_000, "one vector a page");
    let before = live_bytes();
    for image in images {
        sys.add_table(image);
    }
    let grown = live_bytes().saturating_sub(before);
    assert!(
        grown <= 64 << 10,
        "preloading 32 tables grew the heap by {grown} B"
    );
}
