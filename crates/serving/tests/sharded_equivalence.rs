//! The serving tentpole's correctness contract: **any** row-range
//! sharding of a table produces bit-identical `SlsOutput`s to the
//! single-`System` unsharded path, on all three execution backends
//! (DRAM / baseline SSD / NDP), under both scheduling policies.
//!
//! Procedural tables hold values on the 1/64 grid, so f32 accumulation is
//! exact and any association of the per-shard partial sums reproduces the
//! reference bit for bit — the property that makes sharding transparent.

use proptest::prelude::*;
use recssd::{LookupBatch, OpKind, SlsOptions, System};
use recssd_embedding::{
    sls_reference, EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec,
};
use recssd_serving::{SchedulePolicy, ServingConfig, ServingRuntime, SlsPath};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::SimTime;

fn batch_of(rng: &mut Xoshiro256, rows: u64, outputs: usize, lookups: usize) -> LookupBatch {
    LookupBatch::new(
        (0..outputs)
            .map(|_| (0..lookups).map(|_| rng.gen_range(0..rows)).collect())
            .collect(),
    )
}

fn paths() -> [SlsPath; 3] {
    [
        SlsPath::Dram,
        SlsPath::Baseline(SlsOptions::default()),
        SlsPath::Ndp(SlsOptions::default()),
    ]
}

/// Runs `batches` through a sharded runtime and returns each request's
/// merged output as nested vectors.
fn run_sharded(
    shards: usize,
    policy: SchedulePolicy,
    layout: PageLayout,
    table: &EmbeddingTable,
    batches: &[LookupBatch],
    path: SlsPath,
) -> Vec<Vec<Vec<f32>>> {
    let mut cfg = ServingConfig::small_wide(shards, policy);
    cfg.layout = layout;
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table(table.clone());
    for (i, b) in batches.iter().enumerate() {
        // Stagger arrivals so queues form and merging has material.
        rt.submit_at(SimTime::from_us(i as u64), i as u64, t, b.clone(), path);
    }
    let mut done = rt.run_until_idle();
    assert!(
        done.is_sorted_by_key(|d| (d.finish, d.id)),
        "completions out of (finish, id) order"
    );
    done.sort_by_key(|d| d.id);
    done.iter().map(|d| d.outputs.to_nested()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded == unsharded == reference, bit for bit, every backend.
    #[test]
    fn any_sharding_bit_matches_the_unsharded_path(
        rows in 16u64..400,
        dim in 1usize..24,
        shards in 2usize..5,
        outputs in 1usize..4,
        lookups in 1usize..8,
        n_batches in 1usize..4,
        seed in 0u64..10_000,
        dense in proptest::bool::ANY,
    ) {
        let shards = shards.min(rows as usize);
        let layout = if dense { PageLayout::Dense } else { PageLayout::Spread };
        let table = EmbeddingTable::procedural(
            TableSpec::new(rows, dim, Quantization::F32),
            seed,
        );
        let mut rng = Xoshiro256::seed_from(seed ^ 0xABCD);
        let batches: Vec<LookupBatch> = (0..n_batches)
            .map(|_| batch_of(&mut rng, rows, outputs, lookups))
            .collect();
        let reference: Vec<Vec<Vec<f32>>> =
            batches.iter().map(|b| sls_reference(&table, b)).collect();

        for path in paths() {
            for policy in [
                SchedulePolicy::Fifo,
                SchedulePolicy::micro_batch(8),
            ] {
                let sharded = run_sharded(shards, policy, layout, &table, &batches, path);
                prop_assert_eq!(
                    &sharded, &reference,
                    "{} path, {} policy, {} shards diverged from sls_reference",
                    path.name(), policy.name(), shards
                );
                let single = run_sharded(1, policy, layout, &table, &batches, path);
                prop_assert_eq!(
                    &sharded, &single,
                    "{} path: {}-shard output != single-shard output",
                    path.name(), shards
                );
            }
        }
    }
}

/// The single-`System` unsharded submit path agrees with the runtime too
/// (guards against the runtime drifting from the core API semantics).
#[test]
fn runtime_single_shard_matches_direct_system_submission() {
    let rows = 300u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 5);
    let mut rng = Xoshiro256::seed_from(99);
    let batch = batch_of(&mut rng, rows, 3, 6);

    // Direct submission to one System.
    let mut sys = System::new(recssd::RecSsdConfig::small_wide());
    let t = sys.add_table(TableImage::new(
        table.clone(),
        PageLayout::Spread,
        sys.config().ssd.block_bytes(),
    ));
    let op = sys.submit(OpKind::ndp_sls(t, batch.clone(), SlsOptions::default()));
    sys.run_until_idle();
    let direct = sys.result(op).outputs.as_ref().unwrap().to_nested();

    // Same batch through a 3-shard runtime.
    let out = run_sharded(
        3,
        SchedulePolicy::Fifo,
        PageLayout::Spread,
        &table,
        std::slice::from_ref(&batch),
        SlsPath::Ndp(SlsOptions::default()),
    );
    assert_eq!(out[0], direct);
}
