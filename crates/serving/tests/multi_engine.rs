//! Multi-engine in-SSD compute correctness contract: enabling a
//! per-channel engine pool is a pure *timing* change. For **any** pool
//! size, merge placement and scheduling policy, the
//! NDP path's outputs stay bit-identical to `sls_reference` — the
//! transparent-splitter guarantee that lets the engines ship with no
//! host-visible API change.
//!
//! Procedural tables hold values on the 1/64 grid in every encoding, so
//! f32 accumulation is exact and any order in which the engines fold
//! their pages into the result scratchpad reproduces the reference bit
//! for bit.

use proptest::prelude::*;
use recssd::{EnginePoolConfig, LookupBatch, MergePlacement, SlsOptions};
use recssd_embedding::{sls_reference, EmbeddingTable, PageLayout, Quantization, TableSpec};
use recssd_serving::{SchedulePolicy, ServingConfig, ServingRuntime, SlsPath};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::SimTime;

mod quick_scale;

fn batch_of(rng: &mut Xoshiro256, rows: u64, outputs: usize, lookups: usize) -> LookupBatch {
    LookupBatch::new(
        (0..outputs)
            .map(|_| (0..lookups).map(|_| rng.gen_range(0..rows)).collect())
            .collect(),
    )
}

/// Runs `batches` through an NDP-path runtime with the given engine pool
/// (or the serial firmware core when `engines` is `None`).
fn run_ndp(
    shards: usize,
    policy: SchedulePolicy,
    engines: Option<EnginePoolConfig>,
    table: &EmbeddingTable,
    batches: &[LookupBatch],
) -> Vec<Vec<Vec<f32>>> {
    let mut cfg = ServingConfig::small_wide(shards, policy);
    cfg.system.ssd.ftl.engines = engines;
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table(table.clone());
    for (i, b) in batches.iter().enumerate() {
        rt.submit_at(
            SimTime::from_us(i as u64),
            i as u64,
            t,
            b.clone(),
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    let mut done = rt.run_until_idle();
    done.sort_by_key(|d| d.id);
    done.iter().map(|d| d.outputs.to_nested()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any engine-pool configuration bit-matches `sls_reference` and the
    /// engine-less serial path, under both policies and in every encoding
    /// the translation step decodes.
    #[test]
    fn engine_pools_bit_match_the_reference(
        rows in 16u64..400,
        dim in 1usize..24,
        shards in 1usize..4,
        outputs in 1usize..4,
        lookups in 1usize..8,
        n_batches in 1usize..4,
        seed in 0u64..10_000,
        engines in 1usize..9,
        merge_on_engine in proptest::bool::ANY,
        quant in 0usize..3,
    ) {
        let quant = [Quantization::F32, Quantization::F16, Quantization::Int8][quant];
        let table = EmbeddingTable::procedural(TableSpec::new(rows, dim, quant), seed);
        let mut rng = Xoshiro256::seed_from(seed ^ 0x5A5A);
        let batches: Vec<LookupBatch> = (0..n_batches)
            .map(|_| batch_of(&mut rng, rows, outputs, lookups))
            .collect();
        let reference: Vec<Vec<Vec<f32>>> =
            batches.iter().map(|b| sls_reference(&table, b)).collect();
        let merge = if merge_on_engine {
            MergePlacement::Engine((engines as u32) - 1)
        } else {
            MergePlacement::FwCore
        };
        let pool = EnginePoolConfig {
            engines,
            rate_pct: 100,
            merge,
        };
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::micro_batch(8)] {
            let pooled = run_ndp(shards, policy, Some(pool), &table, &batches);
            prop_assert_eq!(
                &pooled, &reference,
                "{} engines ({:?} merge, {:?}) diverged from sls_reference", engines, merge, quant
            );
            let serial = run_ndp(shards, policy, None, &table, &batches);
            prop_assert_eq!(
                &pooled, &serial,
                "{} engines: pooled output != serial fw-core output", engines
            );
        }
    }
}

/// With per-channel engines the translation work leaves the firmware
/// core: the engines accrue busy time and the request still completes
/// with exact results. (Timing-level sanity for the splitter.)
#[test]
fn engines_absorb_translation_work() {
    use recssd::{OpKind, RecSsdConfig, System};
    use recssd_embedding::TableImage;

    let rows = 600u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 16, Quantization::F32), 21);
    let mut rng = Xoshiro256::seed_from(3);
    let batch = batch_of(&mut rng, rows, 4, 16);

    let run = |engines: Option<EnginePoolConfig>| {
        let mut cfg = RecSsdConfig::small_wide();
        cfg.ssd.ftl.engines = engines;
        let mut sys = System::new(cfg);
        let t = sys.add_table(TableImage::new(
            table.clone(),
            PageLayout::Spread,
            sys.config().ssd.block_bytes(),
        ));
        let op = sys.submit(OpKind::ndp_sls(t, batch.clone(), SlsOptions::default()));
        sys.run_until_idle();
        let out = sys.result(op).outputs.as_ref().unwrap().to_nested();
        let fw_busy = sys.device().ftl().firmware_busy();
        let eng_busy = sys.device().ftl().engines_busy_total();
        (out, fw_busy, eng_busy)
    };

    let (serial_out, serial_fw, serial_eng) = run(None);
    let (pooled_out, pooled_fw, pooled_eng) = run(Some(EnginePoolConfig {
        engines: 8,
        rate_pct: 100,
        merge: MergePlacement::FwCore,
    }));
    assert_eq!(pooled_out, serial_out);
    assert_eq!(serial_out, sls_reference(&table, &batch));
    assert_eq!(serial_eng, recssd_sim::SimDuration::ZERO);
    assert!(
        pooled_fw < serial_fw,
        "engine pool should shed translation from the fw core: {pooled_fw} vs {serial_fw}"
    );
    assert!(
        pooled_eng > recssd_sim::SimDuration::ZERO,
        "engines should accrue translation busy time"
    );
}

/// Acceptance bar (quick-scale workload over 1 024-wide vectors, 4 FIFO
/// shards): spreading per-page Translation over per-channel engines never
/// loses to a single engine at any swept pool size and queue depth, and
/// four engines at depth 4 — deep enough to keep them fed — serve at
/// least 1.5× the single-engine throughput.
#[test]
fn engine_pools_dominate_a_single_engine() {
    let tput = |engines, depth| {
        quick_scale::wide_ndp_run(4, engines, depth, false)
            .stats()
            .lookups_per_sim_sec()
    };
    for depth in [1, 2, 4] {
        let single = tput(1, depth);
        for engines in [2, 4, 8] {
            let multi = tput(engines, depth);
            assert!(
                multi >= single,
                "{engines} engines ({multi:.0}) slower than 1 ({single:.0}) at depth {depth}"
            );
            if (engines, depth) == (4, 4) {
                assert!(
                    multi >= 1.5 * single,
                    "4 engines gained only {:.2}x over 1 at depth 4",
                    multi / single
                );
            }
        }
    }
}
