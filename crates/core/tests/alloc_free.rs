//! The datapath's headline discipline, measured: steady-state SLS
//! request processing performs **zero heap allocations per gathered
//! vector**. A counting global allocator brackets warm rounds of
//! different sizes; if any per-vector (or per-page) allocation crept back
//! into the gather/reduce loop, the big round would show hundreds of
//! extra events and the bounds here would fail.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test pollutes the process-global counters.

use recssd::{LookupBatch, OpId, OpKind, RecSsdConfig, SlsOptions, System};
use recssd_embedding::{EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec};
use recssd_sim::alloc_count::{allocations_during, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Fixed per-request allocation headroom: command payloads, the sorted
/// pair list, NVMe completion boxes, result encode — each a *constant
/// number* of events per request regardless of how many vectors are
/// gathered. The bound only has to reject per-vector scaling (the small
/// round gathers 16 vectors, the big one 512).
const FIXED_MARGIN: u64 = 64;

fn batch(lookups: usize, rows: u64) -> LookupBatch {
    // Distinct rows spread evenly over the whole table, so every round
    // touches the same set of (dense-layout) flash pages regardless of
    // its lookup count — page-granular costs (the baseline ships whole
    // pages over NVMe; that asymmetry is the paper's point) are then
    // identical between rounds and only per-vector costs could differ.
    // Single output slot keeps per-output costs identical too.
    LookupBatch::new(vec![(0..lookups as u64)
        .map(|i| i * rows / lookups as u64)
        .collect()])
}

/// Submits, runs, drains and recycles one op, returning the allocation
/// events the whole round took.
fn measured_round(sys: &mut System, kind: OpKind) -> u64 {
    let (allocs, op) = allocations_during(|| {
        let op: OpId = sys.submit(kind);
        sys.run_until_idle();
        op
    });
    let result = sys.take_result(op);
    if let Some(out) = result.outputs {
        sys.recycle_outputs(out);
    }
    allocs
}

/// Runs the scaling assertion for one table layout. With
/// [`PageLayout::Dense`] the flash working set fits the FTL page cache, so
/// the rounds exercise the pure gather/reduce loop; with
/// [`PageLayout::Spread`] every distinct row is a distinct flash page and
/// the table dwarfs the page cache, so the big round drives ~512 full
/// page-miss services, each one pooled page image handed from the flash
/// array through the FTL and the NVMe completion to the host and back. The
/// image pool and the page-list pool must absorb all of it — before
/// pooling, the spread case cost ~3 allocations *per page*.
fn assert_rounds_flat(sys: &mut System, table: recssd::TableId, rows: u64, layout: &str) {
    let small = batch(16, rows);
    let big = batch(512, rows);

    for (label, mk) in [
        (
            "ndp",
            &(|b: &LookupBatch| OpKind::ndp_sls(table, b.clone(), SlsOptions::default()))
                as &dyn Fn(&LookupBatch) -> OpKind,
        ),
        ("baseline", &|b: &LookupBatch| {
            OpKind::baseline_sls(table, b.clone(), SlsOptions::default())
        }),
        ("dram", &|b: &LookupBatch| {
            OpKind::dram_sls(table, b.clone())
        }),
    ] {
        // Warm-up: grow every pool, cache and map to its steady size.
        for _ in 0..3 {
            measured_round(sys, mk(&big));
            measured_round(sys, mk(&small));
        }
        let a_small = measured_round(sys, mk(&small));
        let a_big = measured_round(sys, mk(&big));
        let a_small2 = measured_round(sys, mk(&small));

        // 32x the gathered vectors (and, for the spread layout, 32x the
        // flash pages) must not add per-vector or per-page allocations.
        assert!(
            a_big <= a_small.max(a_small2) + FIXED_MARGIN,
            "{label}/{layout}: steady-state allocations scale with lookups: \
             small {a_small}/{a_small2}, big {a_big}"
        );
        // And steady state really is steady: repeat rounds stay put.
        assert!(
            a_small2 <= a_small + FIXED_MARGIN,
            "{label}/{layout}: repeated identical rounds drift: {a_small} -> {a_small2}"
        );
    }
}

#[test]
fn steady_state_sls_allocations_do_not_scale_with_lookups() {
    let rows = 2000u64;
    // The wide small config: its 4096-page table-alignment slots fit the
    // 2000-page spread table below.
    let mut sys = System::new(RecSsdConfig::small_wide());
    // Dense layout: the flash-page working set is tiny, so after the
    // warm-up rounds every page is in the FTL page cache and the measured
    // rounds exercise exactly the steady-state gather/reduce loop.
    let spec = TableSpec::new(rows, 16, Quantization::F32);
    let dense = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, 1),
        PageLayout::Dense,
        16 * 1024,
    ));
    assert_rounds_flat(&mut sys, dense, rows, "dense");

    // Spread layout: one page per row, 2000 pages against a 32-page FTL
    // cache — (almost) every lookup is a full flash-page service. This is
    // the tightened bound: the page-image pool behind
    // flash → FTL → device → host must make the miss path steady-state
    // allocation-free too.
    let spread = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, 2),
        PageLayout::Spread,
        16 * 1024,
    ));
    assert_rounds_flat(&mut sys, spread, rows, "spread");

    // Absolute steady-state pin: beyond not *scaling*, warm rounds must
    // allocate (essentially) nothing at all. The NDP path historically
    // leaked ~7 events per operator through the plan/encode/decode/
    // result-encode chain (915 allocs over a 128-batch throughput run);
    // the pair-list, config-payload and result-block pools drive that to
    // zero. A tiny slack absorbs one-off container growth (hash maps,
    // event heap) that is not per-round.
    const ROUNDS: u64 = 8;
    const TOTAL_SLACK: u64 = 8;
    for (label, mk) in [
        (
            "ndp",
            &(|b: &LookupBatch| OpKind::ndp_sls(spread, b.clone(), SlsOptions::default()))
                as &dyn Fn(&LookupBatch) -> OpKind,
        ),
        ("baseline", &|b: &LookupBatch| {
            OpKind::baseline_sls(spread, b.clone(), SlsOptions::default())
        }),
        ("dram", &|b: &LookupBatch| {
            OpKind::dram_sls(spread, b.clone())
        }),
    ] {
        let big = batch(512, rows);
        for _ in 0..3 {
            measured_round(&mut sys, mk(&big));
        }
        let total: u64 = (0..ROUNDS)
            .map(|_| measured_round(&mut sys, mk(&big)))
            .sum();
        assert!(
            total <= TOTAL_SLACK,
            "{label}/spread: {total} allocations over {ROUNDS} warm rounds \
             (want ~0; the steady-state pools have a leak)"
        );
    }

    // The baseline's host LRU, thrashing: 512 distinct rows a round
    // through a 64-entry cache. A round plans before it fills, so it hits
    // the 64 rows the previous one filled last and misses the other 448,
    // each of which records its key and evicts one. Filling once cost two
    // allocations per missed row, when the LRU held vectors.
    sys.enable_host_cache(spread, 64);
    let cached = SlsOptions {
        use_host_cache: true,
        ..SlsOptions::default()
    };
    let big = batch(512, rows);
    let round =
        |sys: &mut System| measured_round(sys, OpKind::baseline_sls(spread, big.clone(), cached));
    for _ in 0..3 {
        round(&mut sys);
    }
    let total: u64 = (0..ROUNDS).map(|_| round(&mut sys)).sum();
    let misses = sys.host_cache_stats(spread).expect("enabled").misses();
    assert_eq!(misses, 512 + (2 + ROUNDS) * 448);
    assert!(
        total <= TOTAL_SLACK,
        "host-cache fill: {total} allocations over {ROUNDS} warm rounds of 448 misses"
    );

    // Host-LRU hits on a quantized table: a hit decodes its row from the
    // table image through the system's row scratch (an F32 row streams
    // straight into the accumulator and never touches it). 512 rows a
    // round through 256 entries: each round hits the half the previous
    // one filled and misses the other half.
    let int8 = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(TableSpec::new(rows, 16, Quantization::Int8), 3),
        PageLayout::Spread,
        16 * 1024,
    ));
    sys.enable_host_cache(int8, 256);
    let round =
        |sys: &mut System| measured_round(sys, OpKind::baseline_sls(int8, big.clone(), cached));
    for _ in 0..3 {
        round(&mut sys);
    }
    let total: u64 = (0..ROUNDS).map(|_| round(&mut sys)).sum();
    let hits = sys.host_cache_stats(int8).expect("enabled").hits();
    assert_eq!(hits, (2 + ROUNDS) * 256);
    assert!(
        total <= TOTAL_SLACK,
        "int8 host-cache hits: {total} allocations over {ROUNDS} warm rounds of 256 hits"
    );

    // The SSD-side cache: 512 rows a round through 256 direct-mapped
    // slots, so slot conflicts mix hits and misses. A hit decodes its row
    // from the page's current content, which the FTL reads into a pooled
    // image and takes straight back; a miss records a tag.
    let mut cfg = RecSsdConfig::small_wide();
    cfg.ndp = cfg.ndp.with_embed_cache(256);
    let mut sys = System::new(cfg);
    let table = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, 4),
        PageLayout::Spread,
        16 * 1024,
    ));
    let round = |sys: &mut System| {
        measured_round(
            sys,
            OpKind::ndp_sls(table, big.clone(), SlsOptions::default()),
        )
    };
    for _ in 0..3 {
        round(&mut sys);
    }
    let warm = sys.device().engine().stats().embed_cache;
    let total: u64 = (0..ROUNDS).map(|_| round(&mut sys)).sum();
    let stats = sys.device().engine().stats().embed_cache;
    let (hits, misses) = (stats.hits() - warm.hits(), stats.misses() - warm.misses());
    assert!(
        hits > 0 && misses > 0,
        "warm rounds must mix hits and misses: {hits} hits, {misses} misses"
    );
    assert!(
        total <= TOTAL_SLACK,
        "SSD-side cache: {total} allocations over {ROUNDS} warm rounds \
         ({hits} hits, {misses} misses)"
    );
}
