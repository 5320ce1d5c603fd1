//! What the memo of synthesized row codes costs the host, measured: a
//! fixed 1 MiB of codes plus its index per thread, however many distinct
//! wide rows pass through it, nothing for rows too narrow to use it, and
//! no allocation once it is warm. A counting global allocator reads the
//! live heap and the allocation events around the fills.
//!
//! The counters read are the test thread's own, so the harness's other
//! threads do not pollute them.

use recssd_embedding::{
    row_memo_stats, EmbeddingTable, PageLayout, Quantization, RowMemoStats, RowScratch, TableImage,
    TableSpec,
};
use recssd_sim::alloc_count::{allocations_during, live_bytes, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Rows of 1 024 elements the memo holds: 1 MiB of one-byte codes.
const MEMO_WIDE_ROWS: u64 = 1024;
/// What the memo may hold beyond its codes: the per-set entry index.
const INDEX_SLACK: u64 = 128 << 10;

#[test]
fn the_memo_is_bounded_and_allocates_nothing_once_warm() {
    let rows = 1 << 30;
    let narrow = EmbeddingTable::procedural(TableSpec::new(rows, 255, Quantization::F32), 1);
    let wide = EmbeddingTable::procedural(TableSpec::new(rows, 1024, Quantization::F32), 2);
    let wide16 = EmbeddingTable::procedural(TableSpec::new(rows, 1024, Quantization::F16), 2);
    let image = TableImage::new(wide.clone(), PageLayout::Spread, 16 << 10);
    let mut scratch = RowScratch::default();
    let mut narrow_row = vec![0u8; 4 * 255];
    let mut row = vec![0u8; 4 * 1024];
    let mut page = vec![0u8; 16 << 10];
    let mut acc = vec![0.0f32; 1024];

    // Rows below the gate neither build the memo nor allocate.
    let before = live_bytes();
    let (allocs, ()) = allocations_during(|| {
        for r in 0..2 * MEMO_WIDE_ROWS {
            narrow.encode_row_with(r, &mut scratch, &mut narrow_row);
        }
    });
    assert_eq!(allocs, 0, "narrow rows allocated");
    assert_eq!(live_bytes(), before);
    assert_eq!(row_memo_stats(), RowMemoStats::default());

    // Four memos' worth of distinct wide rows: the first builds it, the
    // rest evict.
    let before = live_bytes();
    for r in 0..4 * MEMO_WIDE_ROWS {
        wide.encode_row_with(r, &mut scratch, &mut row);
    }
    let grown = live_bytes() - before;
    assert!(
        grown <= (1 << 20) + INDEX_SLACK,
        "{} distinct wide rows left {grown} B of heap behind",
        4 * MEMO_WIDE_ROWS
    );
    let stats = row_memo_stats();
    assert_eq!((stats.hits, stats.misses), (0, 4 * MEMO_WIDE_ROWS));

    // Warm every other buffer a wide read uses (the F16 round trip's
    // scratch, the page fill's per-thread scratch), then go on: hits,
    // misses and evictions on every whole-row path allocate nothing.
    wide16.accumulate_row(0, &mut scratch, &mut acc);
    image.fill_relative_page(0, &mut page);
    let (allocs, ()) = allocations_during(|| {
        for r in 2 * MEMO_WIDE_ROWS..6 * MEMO_WIDE_ROWS {
            wide.encode_row_with(r, &mut scratch, &mut row);
            wide16.accumulate_row(r, &mut scratch, &mut acc);
            image.fill_relative_page(r, &mut page);
        }
    });
    assert_eq!(allocs, 0, "a warm memo allocated");
    let warm = row_memo_stats();
    assert!(warm.hits > stats.hits && warm.misses > stats.misses);
}
