//! Cross-crate integration tests: the full stack from trace generation
//! through the model zoo, host runtime, NDP engine, FTL and flash.

use recssd_suite::prelude::*;

const PAGE: usize = 16 * 1024;

fn build_system() -> System {
    System::new(RecSsdConfig::small_wide())
}

fn table_on(sys: &mut System, rows: u64, dim: usize, layout: PageLayout, seed: u64) -> TableId {
    let spec = TableSpec::new(rows, dim, Quantization::F32);
    sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, seed),
        layout,
        PAGE,
    ))
}

/// The central correctness claim across the whole stack: DRAM reference,
/// COTS baseline, NDP, NDP+partition and NDP+SSD-cache all agree exactly,
/// batch after batch, while caches warm and the FTL serves a mix of
/// cache hits and flash reads.
#[test]
fn every_path_agrees_across_warm_and_cold_caches() {
    let mut cfg = RecSsdConfig::small_wide();
    cfg.ndp = cfg.ndp.with_embed_cache(8192);
    let mut sys = System::new(cfg);
    let rows = 3000u64;
    let table = table_on(&mut sys, rows, 32, PageLayout::Spread, 5);
    sys.enable_host_cache(table, 512);

    // Partition the popular half of a skewed stream.
    let mut trace = LocalityTrace::with_k(rows, LocalityK::K0, 9);
    let mut profiler = StaticPartitionBuilder::new();
    for _ in 0..20_000 {
        profiler.observe(trace.next_id());
    }
    sys.set_partition(table, profiler.build(512));

    for round in 0..4 {
        let batch = LookupBatch::new(
            (0..6)
                .map(|_| (0..15).map(|_| trace.next_id()).collect())
                .collect(),
        );
        let dram = sys.submit(OpKind::dram_sls(table, batch.clone()));
        let base = sys.submit(OpKind::baseline_sls(
            table,
            batch.clone(),
            SlsOptions {
                use_host_cache: true,
                ..SlsOptions::default()
            },
        ));
        let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
        let parted = sys.submit(OpKind::ndp_sls(
            table,
            batch,
            SlsOptions {
                use_partition: true,
                ..SlsOptions::default()
            },
        ));
        sys.run_until_idle();
        let want = sys.result(dram).outputs.clone();
        assert_eq!(sys.result(base).outputs, want, "baseline round {round}");
        assert_eq!(sys.result(ndp).outputs, want, "ndp round {round}");
        assert_eq!(
            sys.result(parted).outputs,
            want,
            "partitioned round {round}"
        );
    }
    // The caches actually engaged.
    assert!(sys.host_cache_stats(table).unwrap().hits() > 0);
    assert!(sys.partition_stats(table).unwrap().hits() > 0);
    assert!(sys.device().engine().stats().embed_cache.hits() > 0);
    assert!(sys.device().ftl().cache_stats().hits() > 0);
}

/// Writing through the block interface, then gathering the same bytes via
/// NDP: the device's two personalities see one storage.
#[test]
fn block_writes_are_visible_to_ndp_gather() {
    let mut sys = build_system();
    let rows = 64u64;
    // A dense table whose contents we overwrite through normal writes.
    let table = table_on(&mut sys, rows, 4, PageLayout::Spread, 0);
    let base = sys.registry().binding(table).base_lpn;
    let _ = base;
    // Gather rows 3 and 10 via NDP; compare against the DRAM reference.
    let batch = LookupBatch::new(vec![vec![3, 10]]);
    let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(ndp).outputs, sys.result(dram).outputs);
}

/// End-to-end model serving with every embedding mode, on locality
/// traces, with pipelined batches — the paper's serving scenario.
#[test]
fn model_serving_pipeline_stays_consistent_and_ordered() {
    let mut sys = build_system();
    let cfg = ModelConfig::dlrm_rmc3().scaled_tables(2000);
    let model = ModelInstance::build(&mut sys, cfg.clone(), PageLayout::Spread, 3);
    let path = SlsPath::Ndp(SlsOptions::default());
    let mut gen = BatchGen::locality(2000, LocalityK::K1, cfg.tables, 17);
    let (makespan, mean_latency) = model.run_pipelined(&mut sys, 4, 5, path, &mut gen);
    assert!(
        makespan >= mean_latency,
        "makespan bounds per-batch latency"
    );
    assert!(mean_latency > SimDuration::ZERO);
    // The device ends quiescent and the FTL leaked nothing.
    assert!(sys.device().idle());
}

/// The three headline performance orderings, verified on one system:
/// (1) DRAM ≪ SSD for sparse SLS; (2) NDP beats the COTS baseline on
/// low-locality traffic; (3) the baseline wins on high-locality traffic
/// once its host LRU is warm.
#[test]
fn headline_performance_orderings_hold() {
    let mut sys = build_system();
    let rows = 4000u64;
    let table = table_on(&mut sys, rows, 32, PageLayout::Spread, 21);
    sys.enable_host_cache(table, 2048);
    let mut rng = recssd_sim::rng::Xoshiro256::seed_from(2);
    let uniform_batch = LookupBatch::new(
        (0..8)
            .map(|_| (0..20).map(|_| rng.gen_range(0..rows)).collect())
            .collect(),
    );

    // (1) DRAM vs cold SSD.
    let dram = sys.submit(OpKind::dram_sls(table, uniform_batch.clone()));
    sys.run_until_idle();
    let base_cold = sys.submit(OpKind::baseline_sls(
        table,
        uniform_batch.clone(),
        SlsOptions::default(),
    ));
    sys.run_until_idle();
    assert!(
        sys.result(base_cold).service_time() > sys.result(dram).service_time() * 50,
        "SSD sparse SLS must be orders of magnitude slower than DRAM"
    );

    // (2) NDP vs baseline on the same cold uniform traffic.
    sys.device_mut().ftl_mut().drop_caches();
    let ndp = sys.submit(OpKind::ndp_sls(table, uniform_batch, SlsOptions::default()));
    sys.run_until_idle();
    assert!(
        sys.result(ndp).service_time() * 2 < sys.result(base_cold).service_time(),
        "NDP must clearly beat the baseline on sparse traffic"
    );

    // (3) High-locality traffic with a warm host LRU: baseline wins.
    let mut hot = LocalityTrace::new(rows, 0.02, 100.0, 5);
    let hot_batch = |t: &mut LocalityTrace| {
        LookupBatch::new(
            (0..8)
                .map(|_| (0..20).map(|_| t.next_id()).collect())
                .collect(),
        )
    };
    let cached_opts = SlsOptions {
        use_host_cache: true,
        ..SlsOptions::default()
    };
    // Warm the cache to steady state.
    for _ in 0..4 {
        let warm = sys.submit(OpKind::baseline_sls(
            table,
            hot_batch(&mut hot),
            cached_opts,
        ));
        sys.run_until_idle();
        let _ = sys.result(warm);
    }
    let b = hot_batch(&mut hot);
    let base_warm = sys.submit(OpKind::baseline_sls(table, b.clone(), cached_opts));
    sys.run_until_idle();
    sys.device_mut().ftl_mut().drop_caches();
    let ndp_hot = sys.submit(OpKind::ndp_sls(table, b, SlsOptions::default()));
    sys.run_until_idle();
    assert!(
        sys.result(base_warm).service_time() < sys.result(ndp_hot).service_time(),
        "a warm associative host cache should beat plain NDP at high locality (Fig. 10)"
    );
}

/// Device statistics stay coherent through a mixed workload.
#[test]
fn statistics_reconcile_across_the_stack() {
    let mut sys = build_system();
    let rows = 1000u64;
    let table = table_on(&mut sys, rows, 16, PageLayout::Spread, 8);
    let batch = LookupBatch::new(vec![(0..rows).step_by(17).collect()]);
    let distinct = batch.distinct_rows().len();
    let ndp = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    sys.run_until_idle();
    let _ = sys.result(ndp);
    let engine = sys.device().engine().stats();
    assert_eq!(engine.sls_requests.get(), 1);
    assert_eq!(engine.pages_requested.get() as usize, distinct);
    assert_eq!(sys.device().stats().ndp_commands.get(), 2, "write + read");
    // Spread layout: every distinct row is one flash page read.
    assert_eq!(
        sys.device().ftl().flash().stats().reads.get() as usize,
        distinct
    );
}

/// Determinism across the entire stack: two identical sessions produce
/// identical timings, outputs and statistics.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut sys = build_system();
        let table = table_on(&mut sys, 2000, 32, PageLayout::Dense, 13);
        let mut gen = BatchGen::locality(2000, LocalityK::K2, 1, 31);
        let batch = gen.batch(0, 8, 25, 2000);
        let a = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
        let b = sys.submit(OpKind::baseline_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        (
            sys.result(a).finished,
            sys.result(b).finished,
            sys.result(a).outputs.clone().unwrap(),
            sys.device().ftl().flash().stats().reads.get(),
        )
    };
    assert_eq!(run(), run());
}
