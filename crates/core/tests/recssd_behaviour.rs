//! End-to-end behaviour of the RecSSD core: every accelerated SLS path
//! must reproduce the DRAM reference bit-exactly, and the latency
//! orderings of the paper's headline results must hold.

use proptest::prelude::*;
use recssd::{
    FaultConfig, FaultPlan, LookupBatch, NdpConfig, NdpSlsEngine, OpKind, RecSsdConfig, SlsConfig,
    SlsOptions, SlsPath, System,
};
use recssd_embedding::{
    sls_reference, EmbeddingTable, PageLayout, Quantization, TableImage, TableImageOracle,
    TableSpec,
};
use recssd_ftl::Lpn;
use recssd_nvme::{NvmeCommand, NvmeCompletion, NvmeStatus};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::{EventQueue, StaticPartitionBuilder};
use recssd_ssd::{SsdConfig, SsdDevice, SsdEvent};

use std::sync::Arc;

const PAGE: usize = 16 * 1024;

fn small_system() -> System {
    System::new(RecSsdConfig::small())
}

fn spread_table(
    sys: &mut System,
    rows: u64,
    dim: usize,
    quant: Quantization,
    seed: u64,
) -> recssd::TableId {
    let spec = TableSpec::new(rows, dim, quant);
    sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, seed),
        PageLayout::Spread,
        PAGE,
    ))
}

fn dense_table(
    sys: &mut System,
    rows: u64,
    dim: usize,
    quant: Quantization,
    seed: u64,
) -> recssd::TableId {
    let spec = TableSpec::new(rows, dim, quant);
    sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, seed),
        PageLayout::Dense,
        PAGE,
    ))
}

fn random_batch(rng: &mut Xoshiro256, rows: u64, outputs: usize, lookups: usize) -> LookupBatch {
    LookupBatch::new(
        (0..outputs)
            .map(|_| (0..lookups).map(|_| rng.gen_range(0..rows)).collect())
            .collect(),
    )
}

#[test]
fn ndp_matches_dram_reference_spread_layout() {
    let mut sys = small_system();
    let table = spread_table(&mut sys, 800, 32, Quantization::F32, 1);
    let mut rng = Xoshiro256::seed_from(2);
    let batch = random_batch(&mut rng, 800, 8, 20);
    let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(ndp).outputs, sys.result(dram).outputs);
}

#[test]
fn ndp_matches_dram_reference_dense_layout_all_quants() {
    for quant in [Quantization::F32, Quantization::F16, Quantization::Int8] {
        let mut sys = small_system();
        let table = dense_table(&mut sys, 5_000, 16, quant, 7);
        let mut rng = Xoshiro256::seed_from(3);
        let batch = random_batch(&mut rng, 5_000, 4, 30);
        let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
        let dram = sys.submit(OpKind::dram_sls(table, batch));
        sys.run_until_idle();
        assert_eq!(
            sys.result(ndp).outputs,
            sys.result(dram).outputs,
            "quant {quant:?}"
        );
    }
}

#[test]
fn baseline_matches_dram_reference() {
    let mut sys = small_system();
    let table = dense_table(&mut sys, 3_000, 32, Quantization::F32, 9);
    let mut rng = Xoshiro256::seed_from(4);
    let batch = random_batch(&mut rng, 3_000, 6, 25);
    let base = sys.submit(OpKind::baseline_sls(
        table,
        batch.clone(),
        SlsOptions::default(),
    ));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(base).outputs, sys.result(dram).outputs);
}

#[test]
fn baseline_with_host_cache_matches_and_hits() {
    let mut sys = small_system();
    let table = spread_table(&mut sys, 500, 16, Quantization::F32, 5);
    sys.enable_host_cache(table, 256);
    let opts = SlsOptions {
        use_host_cache: true,
        ..SlsOptions::default()
    };
    let mut rng = Xoshiro256::seed_from(6);
    // Two identical batches: the second should hit the host cache.
    let batch = random_batch(&mut rng, 500, 4, 16);
    let a = sys.submit(OpKind::baseline_sls(table, batch.clone(), opts));
    sys.run_until_idle();
    let b = sys.submit(OpKind::baseline_sls(table, batch.clone(), opts));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(b).outputs, sys.result(dram).outputs);
    let stats = sys.host_cache_stats(table).expect("cache enabled");
    assert!(stats.hits() >= 60, "second batch should hit: {stats:?}");
    // Cached repeat run is much faster than the cold run.
    assert!(sys.result(b).service_time() < sys.result(a).service_time() / 4);
}

#[test]
fn ndp_with_static_partition_matches_reference() {
    let mut sys = small_system();
    let table = spread_table(&mut sys, 600, 32, Quantization::F32, 8);
    let mut rng = Xoshiro256::seed_from(7);
    // Profile a skewed trace and pin the hot quarter in host DRAM.
    let mut builder = StaticPartitionBuilder::new();
    let draw = |rng: &mut Xoshiro256| -> u64 {
        if rng.gen_bool(0.7) {
            rng.gen_range(0..64)
        } else {
            rng.gen_range(0..600)
        }
    };
    for _ in 0..10_000 {
        builder.observe(draw(&mut rng));
    }
    sys.set_partition(table, builder.build(64));
    let opts = SlsOptions {
        use_partition: true,
        ..SlsOptions::default()
    };
    let batch = LookupBatch::new(
        (0..6)
            .map(|_| (0..20).map(|_| draw(&mut rng)).collect())
            .collect(),
    );
    let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), opts));
    let plain = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(ndp).outputs, sys.result(dram).outputs);
    assert_eq!(sys.result(plain).outputs, sys.result(dram).outputs);
}

#[test]
fn all_hot_partition_skips_device_entirely() {
    let mut sys = small_system();
    let table = spread_table(&mut sys, 100, 8, Quantization::F32, 2);
    let mut builder = StaticPartitionBuilder::new();
    for id in 0..100 {
        builder.observe(id);
    }
    sys.set_partition(table, builder.build(100));
    let opts = SlsOptions {
        use_partition: true,
        ..SlsOptions::default()
    };
    let batch = LookupBatch::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
    let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), opts));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(ndp).outputs, sys.result(dram).outputs);
    assert_eq!(
        sys.device().stats().ndp_commands.get(),
        0,
        "no device commands when everything is hot"
    );
}

#[test]
fn ssd_embed_cache_matches_and_hits_on_repeats() {
    let mut cfg = RecSsdConfig::small();
    cfg.ndp = cfg.ndp.with_embed_cache(4096);
    let mut sys = System::new(cfg);
    let table = spread_table(&mut sys, 700, 16, Quantization::F32, 3);
    let mut rng = Xoshiro256::seed_from(9);
    let batch = random_batch(&mut rng, 700, 4, 25);
    let a = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    sys.run_until_idle();
    let b = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    let dram = sys.submit(OpKind::dram_sls(table, batch));
    sys.run_until_idle();
    assert_eq!(sys.result(a).outputs, sys.result(dram).outputs);
    assert_eq!(sys.result(b).outputs, sys.result(dram).outputs);
    let stats = sys.device().engine().stats();
    assert!(
        stats.embed_cache.hits() >= 90,
        "repeat batch should hit the SSD embedding cache: {:?}",
        stats.embed_cache
    );
    // The cached request avoided flash pages.
    assert!(stats.sls_requests.get() > 0, "reports recorded");
    let last = stats.last_report();
    assert!(
        last.pages < 25 * 4,
        "cache hits must reduce pages: {last:?}"
    );
}

/// A re-bound table slot must not be served from the SSD-side embedding
/// cache of its old image: the cache is keyed `(table base, row)` and the
/// new image reuses both.
#[test]
fn rebinding_a_table_flushes_the_ssd_embed_cache() {
    let mut cfg = RecSsdConfig::small();
    cfg.ndp = cfg.ndp.with_embed_cache(1024);
    let mut sys = System::new(cfg);
    let table = spread_table(&mut sys, 64, 16, Quantization::F32, 3);
    let batch = LookupBatch::new(vec![vec![3, 5, 7], vec![9, 11]]);
    let old = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    sys.run_until_idle();
    assert!(sys.result(old).is_ok());

    let rebound = EmbeddingTable::procedural(TableSpec::new(64, 16, Quantization::F32), 4);
    sys.replace_table(
        table,
        TableImage::new(rebound.clone(), PageLayout::Spread, PAGE),
    );
    let new = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    sys.run_until_idle();
    let out = sys.result(new).outputs.as_ref().expect("SLS output");
    assert_eq!(
        out.to_nested(),
        sls_reference(&rebound, &batch),
        "the re-bound table was served the old image's vectors"
    );
}

#[test]
fn ndp_beats_baseline_on_low_locality_spread_access() {
    // The headline result: with one vector per page and low-locality ids,
    // NDP wins by roughly the paper's margin (up to ~4x on the operator).
    // Needs the full 8-channel internal parallelism to show.
    let mut sys = System::new(RecSsdConfig::small_wide());
    let table = spread_table(&mut sys, 1000, 32, Quantization::F32, 4);
    let mut rng = Xoshiro256::seed_from(11);
    let batch = random_batch(&mut rng, 1000, 8, 20); // 160 distinct-ish pages
    let base = sys.submit(OpKind::baseline_sls(
        table,
        batch.clone(),
        SlsOptions::default(),
    ));
    sys.run_until_idle();
    sys.device_mut().ftl_mut().drop_caches();
    let ndp = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    sys.run_until_idle();
    let t_base = sys.result(base).service_time();
    let t_ndp = sys.result(ndp).service_time();
    let speedup = t_base.as_ns() as f64 / t_ndp.as_ns() as f64;
    assert!(
        speedup > 2.0,
        "NDP should clearly win on sparse access: {speedup:.2}x (base {t_base}, ndp {t_ndp})"
    );
}

#[test]
fn baseline_wins_on_sequential_dense_access() {
    // Fig. 8's SEQ result: with high page locality the baseline streams
    // few pages and the host CPU aggregates faster than the ARM core.
    let mut sys = small_system();
    let table = dense_table(&mut sys, 50_000, 32, Quantization::F32, 5);
    let ids: Vec<u64> = (0..512).collect(); // 4 dense pages in total
    let batch = LookupBatch::new(vec![ids]);
    let base = sys.submit(OpKind::baseline_sls(
        table,
        batch.clone(),
        SlsOptions::default(),
    ));
    sys.run_until_idle();
    sys.device_mut().ftl_mut().drop_caches();
    let ndp = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    sys.run_until_idle();
    let t_base = sys.result(base).service_time();
    let t_ndp = sys.result(ndp).service_time();
    assert!(
        t_ndp >= t_base,
        "sequential access should not favour NDP: base {t_base}, ndp {t_ndp}"
    );
}

#[test]
fn breakdown_reports_are_consistent() {
    let mut sys = small_system();
    let table = spread_table(&mut sys, 900, 32, Quantization::F32, 6);
    let mut rng = Xoshiro256::seed_from(13);
    let batch = random_batch(&mut rng, 900, 8, 15);
    let op = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    sys.run_until_idle();
    let _ = sys.result(op);
    let stats = sys.device().engine().stats();
    assert_eq!(stats.sls_requests.get(), 1);
    let r = stats.last_report();
    assert!(r.pages > 0 && r.pages <= 120);
    assert_eq!(r.lookups, 8 * 15);
    assert!(r.translation > recssd_sim::SimDuration::ZERO);
    assert!(r.config_write > recssd_sim::SimDuration::ZERO);
    assert!(r.total >= r.translation);
    assert!(
        r.total >= r.config_write + r.config_process,
        "total spans all phases"
    );
}

#[test]
fn dependent_ops_execute_in_order() {
    let mut sys = small_system();
    let table = spread_table(&mut sys, 300, 8, Quantization::F32, 7);
    let batch = LookupBatch::new(vec![vec![1, 2, 3]]);
    let sls = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    let mlp = sys.submit_after(OpKind::host_compute(1e6, 1e5), &[sls]);
    sys.run_until_idle();
    assert!(
        sys.result(mlp).started >= sys.result(sls).finished,
        "dependent op must wait for its dependency"
    );
    assert!(sys.result(mlp).outputs.is_none());
}

#[test]
fn worker_pool_serialises_excess_ops() {
    let mut cfg = RecSsdConfig::small();
    cfg.host.sls_workers = 1;
    let mut sys = System::new(cfg);
    let table = spread_table(&mut sys, 400, 16, Quantization::F32, 8);
    let batch = LookupBatch::new(vec![vec![5, 10, 15, 20]]);
    let a = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
    let b = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
    sys.run_until_idle();
    assert!(
        sys.result(b).started >= sys.result(a).finished,
        "one worker means strictly serial SLS ops"
    );
}

/// The SLS pool's busy time is its traced `op:compute` windows: five DRAM
/// operators of different sizes queue for two workers, Σ window lengths
/// equals `sls_busy()`, and every window declares the pool's two workers.
#[test]
fn sls_pool_busy_equals_its_traced_compute_windows() {
    let mut cfg = RecSsdConfig::small();
    cfg.host.sls_workers = 2;
    let mut sys = System::new(cfg);
    let sink = recssd::TraceSink::new();
    sys.set_tracer(sink.tracer(1, 0));
    let table = spread_table(&mut sys, 400, 16, Quantization::F32, 8);
    let mut rng = Xoshiro256::seed_from(3);
    let ops: Vec<_> = (1..=5)
        .map(|n| {
            sys.submit(OpKind::dram_sls(
                table,
                random_batch(&mut rng, 400, 2, 4 * n),
            ))
        })
        .collect();
    sys.run_until_idle();
    assert!(sys.result(ops[2]).started > sys.result(ops[0]).started);
    let windows: Vec<_> = sink
        .take_spans()
        .into_iter()
        .filter(|s| s.name == "op:compute")
        .collect();
    assert_eq!(windows.len(), ops.len());
    assert!(windows
        .iter()
        .all(|s| (s.arg_key, s.arg_val) == ("workers", 2)));
    let traced: u64 = windows.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert!(traced > 0);
    assert_eq!(traced, sys.sls_busy().as_ns());
    sys.reset_stats();
    assert_eq!(sys.sls_busy().as_ns(), 0);
}

/// One operator on each path: its `op` span is labelled with the path's
/// name, and the phase span closing it — the one `recssd-obs` attributes
/// the operator's last stretch by — is the path's own.
#[test]
fn op_spans_carry_the_path_name_and_its_tail_phase() {
    let mut sys = small_system();
    let sink = recssd::TraceSink::new();
    sys.set_tracer(sink.tracer(1, 0));
    let table = spread_table(&mut sys, 400, 16, Quantization::F32, 8);
    let workers = sys.config().host.sls_workers as u64;
    let opts = SlsOptions::default();
    for (path, tail) in [
        (SlsPath::Dram, ("op:compute", "workers", workers)),
        (SlsPath::Baseline(opts), ("base:io", "", 0)),
        (SlsPath::Ndp(opts), ("ndp:merge", "", 0)),
    ] {
        let batch = LookupBatch::new(vec![vec![5, 10, 15, 20]]);
        sys.submit(OpKind::Sls { table, batch, path });
        sys.run_until_idle();
        let spans = sink.take_spans();
        let at = spans.iter().position(|s| s.name == "op").expect("op span");
        let (last, op) = (&spans[at - 1], &spans[at]);
        assert_eq!(op.label, path.name());
        assert_eq!(last.parent, op.id, "{} tail parents under its op", op.label);
        assert_eq!((last.name, last.arg_key, last.arg_val), tail);
    }
}

#[test]
fn identical_runs_are_deterministic() {
    let run = || {
        let mut sys = small_system();
        let table = spread_table(&mut sys, 500, 32, Quantization::F32, 9);
        let mut rng = Xoshiro256::seed_from(21);
        let batch = random_batch(&mut rng, 500, 8, 12);
        let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
        let base = sys.submit(OpKind::baseline_sls(table, batch, SlsOptions::default()));
        sys.run_until_idle();
        (
            sys.result(ndp).finished,
            sys.result(base).finished,
            sys.result(ndp).outputs.clone(),
        )
    };
    let (a1, a2, a3) = run();
    let (b1, b2, b3) = run();
    assert_eq!((a1, a2), (b1, b2));
    assert_eq!(a3, b3);
}

/// ROADMAP "pools return to inventory at idle", for the page-image pool:
/// whatever mix of clean, media-failed and poisoned operators ran, once the
/// device is idle every image the flash array ever handed out has been
/// retired to its pool or sits in the FTL page cache.
#[test]
fn page_images_return_to_the_pool_after_faulted_runs() {
    let mut sys = small_system();
    let rows = 480u64;
    let table = spread_table(&mut sys, rows, 16, Quantization::F32, 4);
    let mut fault = FaultConfig::quiet(11);
    fault.uncorrectable_rate = 0.04;
    fault.transient_read_error_rate = 0.05;
    sys.set_fault_plan(Some(FaultPlan::new(fault)));
    let mut rng = Xoshiro256::seed_from(77);
    let (mut clean, mut failed) = ([0u32; 2], [0u32; 2]);
    for _ in 0..24 {
        // Clusters of near-adjacent rows: on the spread layout the
        // baseline reads each as one bridged multi-page command, a dozen
        // in flight at once — a media error on one leaves the others to
        // complete as stragglers of a poisoned operator.
        let ids: Vec<u64> = (0..12)
            .flat_map(|_| {
                let start = rng.gen_range(0..rows - 8);
                [start, start + 1, start + 3, start + 4]
            })
            .collect();
        let batch = LookupBatch::new(vec![ids]);
        let ops = [
            sys.submit(OpKind::baseline_sls(
                table,
                batch.clone(),
                SlsOptions::default(),
            )),
            sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default())),
        ];
        sys.run_until_idle();
        for (path, op) in ops.into_iter().enumerate() {
            let r = sys.take_result(op);
            if r.is_ok() {
                clean[path] += 1;
            } else {
                failed[path] += 1;
            }
            sys.recycle_outputs(r.outputs.expect("an SLS operator has outputs"));
        }
    }
    assert!(
        clean.iter().chain(&failed).all(|&n| n > 0),
        "the schedule must mix clean and failed operators on both paths: \
         clean {clean:?}, failed {failed:?}"
    );
    assert!(
        sys.device().stats().blocks_read.get() > sys.device().stats().read_commands.get(),
        "the baseline must have issued multi-page reads"
    );
    assert!(sys.device().idle());
    let ftl = sys.device().ftl();
    assert_eq!(
        ftl.flash().page_images_out(),
        ftl.cached_pages(),
        "page images leaked: {} pooled",
        ftl.flash().page_images_pooled()
    );
}

/// Submits one command on queue 0 of a bare device and steps the device
/// until the command completes.
fn run_command(
    dev: &mut SsdDevice<NdpSlsEngine>,
    q: &mut EventQueue<SsdEvent>,
    cmd: NvmeCommand,
) -> NvmeCompletion {
    dev.queue(0).submit(cmd).expect("queue has room");
    dev.doorbell(q.now(), 0, &mut |d, e| q.push_after(d, e));
    while let Some((now, ev)) = q.pop() {
        dev.handle(now, ev, &mut |d, e| q.push_after(d, e));
    }
    dev.queue(0).poll().expect("the command completed")
}

/// A config payload is host-supplied bytes. One whose rows lie past the
/// device's logical space — or so far past that `table base + page`
/// wraps — is refused with a typed status before any page is read; the
/// entry and its pooled buffers are released, so the same request id
/// serves a valid command pair next.
#[test]
fn out_of_range_config_is_refused_not_fatal() {
    const ALIGN: u64 = 1 << 10;
    let ndp = NdpConfig {
        table_align: ALIGN,
        ..NdpConfig::cosmos()
    };
    let mut dev = SsdDevice::with_engine(SsdConfig::cosmos_small(), NdpSlsEngine::new(ndp));
    let mut q: EventQueue<SsdEvent> = EventQueue::new();
    let mut run = |dev: &mut SsdDevice<NdpSlsEngine>, cmd| run_command(dev, &mut q, cmd);

    let logical_pages = dev.ftl().config().logical_pages;
    let slba = NvmeCommand::ndp_slba(ALIGN, 9, ALIGN);
    let valid = SlsConfig {
        dim: 4,
        quant: Quantization::F32,
        rows_per_page: 1,
        n_results: 1,
        pairs: vec![(0, 0), (logical_pages - ALIGN - 1, 0)],
    };
    let reads_before = dev.ftl().stats().host_reads.get();
    for bad_row in [logical_pages - ALIGN, u64::MAX] {
        // Patch the last pair's row in the encoded bytes: still sorted,
        // still well-formed, one page too far (or 2^64 pages too far).
        let mut payload = valid.encode();
        let at = payload.len() - 12;
        payload[at..at + 8].copy_from_slice(&bad_row.to_le_bytes());
        let done = run(&mut dev, NvmeCommand::ndp_write(1, slba, payload));
        assert_eq!(done.status, NvmeStatus::InvalidField, "row {bad_row}");
        assert!(
            dev.idle(),
            "the entry was released and nothing is in flight"
        );
        assert_eq!(dev.ftl().stats().host_reads.get(), reads_before);
    }

    // The last in-range row is served (unwritten pages read as zeros).
    let done = run(&mut dev, NvmeCommand::ndp_write(2, slba, valid.encode()));
    assert_eq!(done.status, NvmeStatus::Success);
    let done = run(&mut dev, NvmeCommand::ndp_read(3, slba, 1));
    assert_eq!(done.status, NvmeStatus::Success);
    assert!(dev.idle());
}

/// The NDP request id is whatever the host encodes below the table
/// alignment. Ids that share a slot of the engine's pending-request table
/// (equal modulo every power of two up to 2^20) or lie 2^40 apart are all
/// pending at once, each completes with exactly `sls_reference`'s sums, a
/// second config for a pending id is refused as before, and the table
/// stays within its bound.
#[test]
fn host_chosen_request_ids_that_collide_still_complete_exactly() {
    const ALIGN: u64 = 1 << 41;
    let ndp = NdpConfig {
        table_align: ALIGN,
        ..NdpConfig::cosmos()
    };
    let mut dev = SsdDevice::with_engine(SsdConfig::cosmos_small(), NdpSlsEngine::new(ndp));
    let mut q: EventQueue<SsdEvent> = EventQueue::new();
    let (rows, dim) = (300u64, 8usize);
    let image = Arc::new(TableImage::new(
        EmbeddingTable::procedural(TableSpec::new(rows, dim, Quantization::F32), 3),
        PageLayout::Spread,
        PAGE,
    ));
    dev.preload(
        Lpn(0),
        image.pages(),
        Arc::new(TableImageOracle::new(image.clone(), 0)),
    );
    let mut ids: Vec<u64> = (0..=20).map(|b| 5 + (1u64 << b)).collect();
    ids.extend([5, 3, 3 + (1 << 40), (1 << 40) - 1, ALIGN - 1]);
    let mut rng = Xoshiro256::seed_from(9);
    let batches: Vec<LookupBatch> = ids
        .iter()
        .map(|_| random_batch(&mut rng, rows, 3, 6))
        .collect();

    for (cid, (&id, batch)) in ids.iter().zip(&batches).enumerate() {
        let cfg = SlsConfig {
            dim: dim as u32,
            quant: Quantization::F32,
            rows_per_page: image.rows_per_page() as u32,
            n_results: batch.outputs() as u32,
            pairs: batch.pairs(),
        };
        let slba = NvmeCommand::ndp_slba(0, id, ALIGN);
        let done = run_command(
            &mut dev,
            &mut q,
            NvmeCommand::ndp_write(cid as u16, slba, cfg.encode()),
        );
        assert_eq!(done.status, NvmeStatus::Success, "config of request {id}");
    }
    let pending = ids.len();
    assert_eq!(dev.engine().pending_requests(), pending);
    assert!(dev.engine().request_table_slots() <= 8 * (pending + 1));

    // A second config for a pending id is refused; the first is untouched.
    for &id in &[5, 3 + (1 << 40)] {
        let cfg = SlsConfig {
            dim: dim as u32,
            quant: Quantization::F32,
            rows_per_page: 1,
            n_results: 1,
            pairs: vec![(0, 0)],
        };
        let slba = NvmeCommand::ndp_slba(0, id, ALIGN);
        let done = run_command(
            &mut dev,
            &mut q,
            NvmeCommand::ndp_write(900, slba, cfg.encode()),
        );
        assert_eq!(
            done.status,
            NvmeStatus::InternalError,
            "duplicate request {id}"
        );
    }
    assert_eq!(dev.engine().pending_requests(), pending);

    for (cid, (&id, batch)) in ids.iter().zip(&batches).enumerate().rev() {
        let blocks = (batch.outputs() * dim * 4).div_ceil(PAGE) as u32;
        let slba = NvmeCommand::ndp_slba(0, id, ALIGN);
        let done = run_command(
            &mut dev,
            &mut q,
            NvmeCommand::ndp_read(1000 + cid as u16, slba, blocks),
        );
        assert_eq!(done.status, NvmeStatus::Success, "results of request {id}");
        let bytes = done.data.expect("a result block").to_vec();
        assert_eq!(
            SlsConfig::decode_results(&bytes, batch.outputs(), dim),
            sls_reference(image.table(), batch),
            "request {id}"
        );
    }
    assert_eq!(dev.engine().pending_requests(), 0);
    assert!(dev.idle());
}

/// The result scratchpad is sized from the config's `n_results × dim`,
/// two host-supplied fields. A block no read command could return — here
/// 2^32 vectors of a page each, 64 TiB — is refused before anything is
/// sized from it, and the request id serves a valid pair next.
#[test]
fn oversized_result_block_is_refused_not_fatal() {
    let mut dev = SsdDevice::with_engine(
        SsdConfig::cosmos_small(),
        NdpSlsEngine::new(NdpConfig::cosmos()),
    );
    let mut q: EventQueue<SsdEvent> = EventQueue::new();
    let mut run = |dev: &mut SsdDevice<NdpSlsEngine>, cmd| run_command(dev, &mut q, cmd);

    let slba = NvmeCommand::ndp_slba(0, 5, NdpConfig::cosmos().table_align);
    let page_floats = (dev.ftl().page_bytes() / 4) as u32;
    let valid = SlsConfig {
        dim: page_floats,
        quant: Quantization::F32,
        rows_per_page: 1,
        n_results: 1,
        pairs: vec![(0, 0)],
    };
    let oversized = SlsConfig {
        n_results: u32::MAX,
        ..valid.clone()
    };
    let done = run(
        &mut dev,
        NvmeCommand::ndp_write(1, slba, oversized.encode()),
    );
    assert_eq!(done.status, NvmeStatus::InvalidField);
    assert!(
        dev.idle(),
        "the entry was released and nothing is in flight"
    );
    assert_eq!(dev.ftl().stats().host_reads.get(), 0);

    let done = run(&mut dev, NvmeCommand::ndp_write(2, slba, valid.encode()));
    assert_eq!(done.status, NvmeStatus::Success);
    let done = run(&mut dev, NvmeCommand::ndp_read(3, slba, 1));
    assert_eq!(done.status, NvmeStatus::Success);
    assert!(dev.idle());
}

/// The SSD-side embedding cache remembers which rows it holds, not their
/// bytes: once a block write changes a cached row's page, a hit returns
/// the page's current content — from the page cache, from flash after a
/// cache drop, and from the write buffer while the program is in flight —
/// exactly what the same command sequence returns with the cache off.
#[test]
fn ssd_embed_cache_hits_serve_the_pages_current_content() {
    const ALIGN: u64 = 1 << 10;
    const ROW: u64 = 5;
    let sls = SlsConfig {
        dim: 4,
        quant: Quantization::F32,
        rows_per_page: 1,
        n_results: 1,
        pairs: vec![(ROW, 0)],
    };
    let slba = NvmeCommand::ndp_slba(0, 1, ALIGN);
    let block = |v: f32| -> NvmeCommand {
        let mut page = vec![0u8; PAGE];
        for (i, x) in [v, v + 1.0, -v, 0.5].iter().enumerate() {
            page[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        NvmeCommand::write(0, ROW, 1, page)
    };
    let gather = |dev: &mut SsdDevice<NdpSlsEngine>, q: &mut EventQueue<SsdEvent>| {
        let done = run_command(dev, q, NvmeCommand::ndp_write(1, slba, sls.encode()));
        assert_eq!((done.cid, done.status), (1, NvmeStatus::Success));
        // A block write in flight when the gather began completes behind it.
        while let Some(done) = dev.queue(0).poll() {
            assert_eq!((done.cid, done.status), (0, NvmeStatus::Success));
        }
        let done = run_command(dev, q, NvmeCommand::ndp_read(2, slba, 1));
        let bytes = done.data.expect("a result block").to_vec();
        SlsConfig::decode_results(&bytes, 1, 4).remove(0)
    };
    let run = |slots: usize| {
        let ndp = NdpConfig {
            table_align: ALIGN,
            ..NdpConfig::cosmos()
        }
        .with_embed_cache(slots);
        let mut dev = SsdDevice::with_engine(SsdConfig::cosmos_small(), NdpSlsEngine::new(ndp));
        let mut q: EventQueue<SsdEvent> = EventQueue::new();
        let mut out = Vec::new();
        // Fill: the first gather misses and records the row.
        run_command(&mut dev, &mut q, block(1.0));
        out.push(gather(&mut dev, &mut q));
        // New bytes on the page; the FTL page cache holds them.
        run_command(&mut dev, &mut q, block(2.0));
        out.push(gather(&mut dev, &mut q));
        // Only flash holds them.
        dev.ftl_mut().drop_caches();
        out.push(gather(&mut dev, &mut q));
        // Only the write buffer holds them: the block has reached the FTL,
        // its program is in flight and the page cache has been dropped.
        dev.queue(0).submit(block(3.0)).expect("queue has room");
        dev.doorbell(q.now(), 0, &mut |d, e| q.push_after(d, e));
        let writes = dev.ftl().stats().host_writes.get();
        while dev.ftl().stats().host_writes.get() == writes {
            let (now, ev) = q.pop().expect("the block reaches the FTL");
            dev.handle(now, ev, &mut |d, e| q.push_after(d, e));
        }
        dev.ftl_mut().drop_caches();
        out.push(gather(&mut dev, &mut q));
        (out, dev.engine().stats().embed_cache.hits())
    };
    let (cached, hits) = run(1024);
    let (uncached, _) = run(0);
    assert_eq!(hits, 3, "every gather after the first hits the cache");
    assert_eq!(cached, uncached);
    let want = |v: f32| vec![v, v + 1.0, -v, 0.5];
    assert_eq!(uncached, [want(1.0), want(2.0), want(2.0), want(3.0)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary batches and layouts, all three paths agree exactly.
    #[test]
    fn all_paths_agree(
        seed in 0u64..1000,
        outputs in 1usize..6,
        lookups in 1usize..24,
        dense in proptest::bool::ANY,
    ) {
        let mut sys = small_system();
        let rows = 900u64;
        let table = if dense {
            dense_table(&mut sys, rows, 16, Quantization::F32, seed)
        } else {
            spread_table(&mut sys, rows, 16, Quantization::F32, seed)
        };
        let mut rng = Xoshiro256::seed_from(seed ^ 0xABCD);
        let batch = random_batch(&mut rng, rows, outputs, lookups);
        let ndp = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
        let base = sys.submit(OpKind::baseline_sls(table, batch.clone(), SlsOptions::default()));
        let dram = sys.submit(OpKind::dram_sls(table, batch));
        sys.run_until_idle();
        prop_assert_eq!(sys.result(ndp).outputs.as_ref(), sys.result(dram).outputs.as_ref());
        prop_assert_eq!(sys.result(base).outputs.as_ref(), sys.result(dram).outputs.as_ref());
    }
}
