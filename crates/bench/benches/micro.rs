//! Criterion microbenchmarks of the building blocks on the hot paths:
//! cache operations, deterministic RNG, trace sampling, quantization and
//! a full small NDP SLS round trip through the simulator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recssd::ndp::EnginePartials;
use recssd::{OpKind, RecSsdConfig, SlsConfig, SlsOptions, System};
use recssd_embedding::{
    EmbeddingTable, LookupBatch, PageLayout, Quantization, TableImage, TableSpec,
};
use recssd_flash::FlashGeometry;
use recssd_ftl::BlockAllocator;
use recssd_placement::{allocate_global_budget, FreqProfiler};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::LruCache;
use recssd_trace::{LocalityK, LocalityTrace, ZipfTrace};

fn bench_caches(c: &mut Criterion) {
    c.bench_function("lru_cache_get_insert", |b| {
        let mut cache = LruCache::new(2048);
        let mut rng = Xoshiro256::seed_from(1);
        b.iter(|| {
            let key = rng.gen_range(0..4096);
            if cache.get(&key).is_none() {
                cache.insert(key, key);
            }
            black_box(cache.len())
        })
    });
}

fn bench_traces(c: &mut Criterion) {
    c.bench_function("locality_trace_next_id", |b| {
        let mut t = LocalityTrace::with_k(1_000_000, LocalityK::K1, 3);
        b.iter(|| black_box(t.next_id()))
    });
    c.bench_function("locality_trace_next_id_warm_16k", |b| {
        // K = 2 over 2^40 rows, stack already at its 16 384 ids: nearly
        // every fresh id is new to the stack and pushes the oldest off.
        let mut t = LocalityTrace::with_k(1 << 40, LocalityK::K2, 3);
        t.take_ids(40_000);
        b.iter(|| black_box(t.next_id()))
    });
    c.bench_function("zipf_trace_next_id", |b| {
        let mut z = ZipfTrace::new(100_000_000, 1.2, 4);
        b.iter(|| black_box(z.next_id()))
    });
}

fn bench_quant(c: &mut Criterion) {
    let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
    for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
        let mut buf = vec![0u8; q.row_bytes(64)];
        c.bench_function(&format!("quant_encode_decode_{q:?}"), |b| {
            b.iter(|| {
                q.encode(&vals, &mut buf);
                black_box(q.decode(&buf, 64))
            })
        });
    }
}

/// The optimisation this PR exists for, made visible in-repo: the
/// allocating `decode` against the allocation-free `decode_into` and the
/// fused `decode_accumulate`.
fn bench_decode_variants(c: &mut Criterion) {
    let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
    for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
        let mut buf = vec![0u8; q.row_bytes(64)];
        q.encode(&vals, &mut buf);
        c.bench_function(&format!("decode_alloc_{q:?}"), |b| {
            b.iter(|| black_box(q.decode(&buf, 64)))
        });
        let mut out = vec![0.0f32; 64];
        c.bench_function(&format!("decode_into_{q:?}"), |b| {
            b.iter(|| {
                q.decode_into(&buf, &mut out);
                black_box(out[0])
            })
        });
        let mut acc = vec![0.0f32; 64];
        c.bench_function(&format!("decode_accumulate_{q:?}"), |b| {
            b.iter(|| {
                q.decode_accumulate(&buf, &mut acc);
                black_box(acc[0])
            })
        });
    }
}

/// A page-translation loop exactly as the NDP engine runs it: one dense
/// 16 KB page, every resident vector accumulated into a result slot.
fn bench_page_translation(c: &mut Criterion) {
    for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
        let dim = 32usize;
        let page_bytes = 16 * 1024;
        let img = TableImage::new(
            EmbeddingTable::procedural(TableSpec::new(100_000, dim, q), 7),
            PageLayout::Dense,
            page_bytes,
        );
        let mut page = vec![0u8; page_bytes];
        img.fill_relative_page(3, &mut page);
        let rows = img.rows_per_page() as usize;
        let row_bytes = img.table().spec().row_bytes();
        let mut acc = vec![0.0f32; dim];
        c.bench_function(&format!("page_translate_{rows}x_{q:?}"), |b| {
            b.iter(|| {
                for r in 0..rows {
                    img.accumulate_row_at(&page, r * row_bytes, &mut acc);
                }
                black_box(acc[0])
            })
        });
    }
}

/// Page synthesis as the oracle-backed flash store runs it on every read
/// miss: one wide row per page (the `ndp-flashwall` shape) and a dense
/// page of narrow rows. Wide rows go through the per-thread memo of row
/// codes, so they are timed twice: `_cold` cycles through twice the rows
/// the memo holds (every fill synthesizes) and `_warm` refills one page
/// (every fill is a memo hit). Narrow rows never use the memo.
fn bench_page_fill(c: &mut Criterion) {
    /// Twice the dim-1024 rows the memo's 1 MiB of codes holds.
    const COLD_PAGES: u64 = 2048;
    for (rows, dim) in [(1usize, 1024usize), (128, 32)] {
        for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
            let page_bytes = rows * q.row_bytes(dim);
            let img = TableImage::new(
                EmbeddingTable::procedural(TableSpec::new(100_000, dim, q), 7),
                PageLayout::Dense,
                page_bytes,
            );
            let mut page = vec![0u8; page_bytes];
            let mut fill = |name: String, cycle: u64| {
                let mut next = 0u64;
                c.bench_function(&name, |b| {
                    b.iter(|| {
                        next = (next + 1) % cycle;
                        img.fill_relative_page(3 + next, &mut page);
                        black_box(page[0])
                    })
                });
            };
            let name = format!("page_fill_{rows}x{dim}_{q:?}");
            if rows == 1 {
                fill(format!("{name}_cold"), COLD_PAGES);
                fill(format!("{name}_warm"), 1);
            } else {
                fill(name, 1);
            }
        }
    }
}

/// One SLS command's worth of engine-partial traffic on an 8-engine pool
/// with 4 result slots of 1024 floats: reset, five pages' rows landing on
/// five `(engine, slot)` rows, merge.
fn bench_engine_partials(c: &mut Criterion) {
    let (engines, n_results, dim) = (8usize, 4usize, 1024usize);
    let row: Vec<f32> = (0..dim).map(|i| (i as f32 - 512.0) / 64.0).collect();
    let mut encoded = vec![0u8; 4 * dim];
    Quantization::F32.encode(&row, &mut encoded);
    let mut partials = EnginePartials::default();
    let mut results = vec![0.0f32; n_results * dim];
    c.bench_function("engine_partials_fold_8x4x1024", |b| {
        b.iter(|| {
            partials.reset(engines, n_results, dim);
            for (engine, slot) in [(0, 0), (3, 1), (3, 2), (5, 0), (7, 3)] {
                partials.add_encoded(engine, slot, Quantization::F32, &encoded);
            }
            results.fill(0.0);
            partials.merge_into(&mut results);
            black_box(results[0])
        })
    });
}

/// The result block of a 4 × 1024 SLS command: device-side encode into a
/// pooled buffer, host-side accumulate out of it.
fn bench_result_codec(c: &mut Criterion) {
    let results: Vec<f32> = (0..4 * 1024).map(|i| (i as f32 - 2048.0) / 64.0).collect();
    let mut block = Vec::new();
    let mut acc = vec![0.0f32; results.len()];
    c.bench_function("result_codec_4x1024", |b| {
        b.iter(|| {
            SlsConfig::encode_results_into(&results, 16 * 1024, &mut block);
            SlsConfig::accumulate_results(&block, &mut acc);
            black_box(acc[0])
        })
    });
}

/// What a full-size Cosmos+ `System` costs before its first command:
/// `model-zoo` and the Fig. 10 harness build and drop dozens.
fn bench_cosmos_setup(c: &mut Criterion) {
    c.bench_function("block_allocator_new_cosmos", |b| {
        b.iter(|| black_box(BlockAllocator::new(FlashGeometry::cosmos())))
    });
    c.bench_function("system_new_drop_cosmos", |b| {
        b.iter(|| black_box(System::new(RecSsdConfig::cosmos())))
    });
}

/// One epoch of the adaptive loop on the placement API — 96 requests of
/// 40 weighted lookups observed, the per-table decay, the merge, the
/// reset of the epoch's counts and the global budget split — over about
/// 2 000 live rows (a pool of 512 scattered rows a table) whatever the
/// tables hold. The two sizes should cost about the same: an epoch walks
/// the live rows.
fn bench_adaptive_epoch(c: &mut Criterion) {
    for (name, rows) in [
        ("adaptive_epoch_4x4096", 4096u64),
        ("adaptive_epoch_4x1M_2k_live", 1 << 20),
    ] {
        c.bench_function(name, |b| {
            let mut ewma = FreqProfiler::new();
            let mut fresh = FreqProfiler::new();
            for _ in 0..4 {
                ewma.add_table(rows);
                fresh.add_table(rows);
            }
            let mut rng = Xoshiro256::seed_from(5);
            let pool: Vec<u64> = (0..512).map(|_| rng.gen_range(0..rows)).collect();
            b.iter(|| {
                for i in 0..96 * 40 {
                    let row = pool[rng.gen_range(0..512) as usize];
                    fresh.observe_count(i % 4, row, 16);
                }
                for t in 0..4 {
                    ewma.decay_table(t, 0.8);
                }
                ewma.merge(&fresh);
                fresh.decay(0.0);
                black_box(allocate_global_budget(&ewma, 512))
            })
        });
    }
}

fn bench_ndp_round_trip(c: &mut Criterion) {
    c.bench_function("ndp_sls_small_end_to_end", |b| {
        b.iter(|| {
            let mut sys = System::new(RecSsdConfig::small());
            let spec = TableSpec::new(500, 32, Quantization::F32);
            let table = sys.add_table(TableImage::new(
                EmbeddingTable::procedural(spec, 1),
                PageLayout::Spread,
                16 * 1024,
            ));
            let batch = LookupBatch::new(vec![vec![1, 99, 250], vec![400, 7]]);
            let op = sys.submit(OpKind::ndp_sls(table, batch, SlsOptions::default()));
            sys.run_until_idle();
            black_box(sys.result(op).outputs.clone())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_caches, bench_traces, bench_quant, bench_decode_variants,
        bench_page_translation, bench_page_fill, bench_engine_partials, bench_result_codec,
        bench_cosmos_setup, bench_adaptive_epoch, bench_ndp_round_trip
}
criterion_main!(benches);
