//! The placement subsystem's correctness contract: hybrid DRAM-tier +
//! packed-flash serving produces **bit-identical** outputs to the
//! unplaced `sls_reference` path — for any profile, any hot budget, any
//! sharding, any layout, on all three execution backends and both
//! scheduling policies, regardless of how tier and shard partials
//! interleave.
//!
//! Procedural tables hold values on the 1/64 grid, so f32 accumulation
//! is exact and any association of DRAM-tier + per-shard partial sums
//! reproduces the reference bit for bit.

use proptest::prelude::*;
use recssd::{FaultConfig, LookupBatch, SlsOptions};
use recssd_embedding::{sls_reference, EmbeddingTable, PageLayout, Quantization, TableSpec};
use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    critical_path_report, AdaptivePolicy, LoadGen, LoadMode, Phase, SchedulePolicy, ServedTableId,
    ServingConfig, ServingRuntime, ServingStats, SlsPath, TrafficSpec,
};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::stats::HitStats;
use recssd_sim::{SimDuration, SimTime};
use recssd_trace::{DriftingZipf, RowStream, ZipfTrace};

mod quick_scale;

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

/// A skewed profile: a small scattered hot set plus a uniform tail, the
/// §3.1 shape placement exists to exploit.
fn skewed_profile(rows: u64, seed: u64) -> FreqProfiler {
    let mut prof = FreqProfiler::new();
    let t = prof.add_table(rows);
    let mut rng = Xoshiro256::seed_from(seed);
    let hot_set = (rows / 8).max(1);
    for _ in 0..2_000 {
        let row = if rng.gen_bool(0.75) {
            rng.gen_range(0..hot_set) * 7919 % rows
        } else {
            rng.gen_range(0..rows)
        };
        prof.observe(t, row);
    }
    prof
}

fn run_placed(
    shards: usize,
    policy: SchedulePolicy,
    layout: PageLayout,
    table: &EmbeddingTable,
    plan: Option<&PlacementPlan>,
    batches: &[LookupBatch],
    path: SlsPath,
) -> Vec<Vec<Vec<f32>>> {
    let mut cfg = ServingConfig::small_wide(shards, policy);
    cfg.layout = layout;
    let mut rt = ServingRuntime::new(&cfg);
    let t = match plan {
        Some(plan) => rt.add_table_placed(table.clone(), plan.table(0)),
        None => rt.add_table(table.clone()),
    };
    for (i, b) in batches.iter().enumerate() {
        // Stagger arrivals so queues form and merging has material.
        rt.submit_at(SimTime::from_us(i as u64), i as u64, t, b.clone(), path);
    }
    let mut done = rt.run_until_idle();
    done.sort_by_key(|d| d.id);
    for d in &done {
        rt.verify_bitmatch(d);
    }
    done.iter().map(|d| d.outputs.to_nested()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hybrid placement == unplaced sharding == reference, bit for bit,
    /// every backend, every policy, every layout.
    #[test]
    fn any_placement_bit_matches_the_unplaced_path(
        rows in 16u64..300,
        dim in 1usize..20,
        shards in 2usize..5,
        hot_tenths in 0u32..11,
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
        let prof = skewed_profile(rows, seed ^ 0x5EED);
        let policy = PlacementPolicy::hot_fraction(hot_tenths as f64 / 10.0);
        let plan = PlacementPlan::build(&prof, &policy);

        let mut rng = Xoshiro256::seed_from(seed ^ 0xABCD);
        let batches: Vec<LookupBatch> = (0..n_batches)
            .map(|_| batch_of(&mut rng, rows, outputs, lookups))
            .collect();
        let reference: Vec<Vec<Vec<f32>>> =
            batches.iter().map(|b| sls_reference(&table, b)).collect();

        for path in paths() {
            for sched in [SchedulePolicy::Fifo, SchedulePolicy::micro_batch(8)] {
                let placed = run_placed(
                    shards, sched, layout, &table, Some(&plan), &batches, path,
                );
                prop_assert_eq!(
                    &placed, &reference,
                    "{} path, {} policy, {} shards, hot {}/10: placed output \
                     diverged from sls_reference",
                    path.name(), sched.name(), shards, hot_tenths
                );
                let unplaced = run_placed(
                    shards, sched, layout, &table, None, &batches, path,
                );
                prop_assert_eq!(
                    &placed, &unplaced,
                    "{} path: placed output != unplaced output",
                    path.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The migration correctness contract: requests straddling a live
    /// `refresh_placement` — split under the old plan, completing after
    /// the new one activates, interleaved with the migration operators
    /// themselves — stay bit-identical to `sls_reference` on all three
    /// paths and both policies.
    #[test]
    fn requests_straddling_a_refresh_stay_bit_identical(
        rows in 24u64..200,
        dim in 1usize..16,
        shards in 2usize..4,
        hot_tenths_a in 0u32..11,
        hot_tenths_b in 0u32..11,
        outputs in 1usize..3,
        lookups in 1usize..6,
        n_before in 2usize..5,
        n_after in 1usize..4,
        seed in 0u64..10_000,
        dense in proptest::bool::ANY,
    ) {
        let shards = shards.min(rows as usize);
        let layout = if dense { PageLayout::Dense } else { PageLayout::Spread };
        let table = EmbeddingTable::procedural(
            TableSpec::new(rows, dim, Quantization::F32),
            seed,
        );
        // Two genuinely different generations: independent profiles and
        // independent budgets, so promote/demote sets are non-trivial.
        let plan_a = PlacementPlan::build(
            &skewed_profile(rows, seed ^ 0x5EED),
            &PlacementPolicy::hot_fraction(hot_tenths_a as f64 / 10.0),
        );
        let plan_b = PlacementPlan::build(
            &skewed_profile(rows, seed ^ 0xB0B0),
            &PlacementPolicy::hot_fraction(hot_tenths_b as f64 / 10.0),
        );

        let mut rng = Xoshiro256::seed_from(seed ^ 0xABCD);
        let before: Vec<LookupBatch> = (0..n_before)
            .map(|_| batch_of(&mut rng, rows, outputs, lookups))
            .collect();
        let after: Vec<LookupBatch> = (0..n_after)
            .map(|_| batch_of(&mut rng, rows, outputs, lookups))
            .collect();
        let reference: Vec<Vec<Vec<f32>>> = before
            .iter()
            .chain(after.iter())
            .map(|b| sls_reference(&table, b))
            .collect();

        for path in paths() {
            for sched in [SchedulePolicy::Fifo, SchedulePolicy::micro_batch(8)] {
                let mut cfg = ServingConfig::small_wide(shards, sched);
                cfg.layout = layout;
                let mut rt = ServingRuntime::new(&cfg);
                let t = rt.add_table_placed(table.clone(), plan_a.table(0));
                for (i, b) in before.iter().enumerate() {
                    rt.submit_at(SimTime::from_us(i as u64), i as u64, t, b.clone(), path);
                }
                // Drain part of the backlog so the refresh lands with
                // requests genuinely in flight under the old plan.
                let mut done = Vec::new();
                for _ in 0..n_before / 2 {
                    if let Some(c) = rt.step().expect("runtime invariant") {
                        done.push(c);
                    }
                }
                let refreshed = rt.refresh_placement(t, plan_b.table(0));
                prop_assert!(refreshed.is_some(), "first refresh cannot be deferred");
                let now = rt.now();
                for (i, b) in after.iter().enumerate() {
                    rt.submit_at(
                        now + SimDuration::from_us(i as u64 + 1),
                        1_000 + i as u64,
                        t,
                        b.clone(),
                        path,
                    );
                }
                done.extend(rt.run_until_idle());
                done.sort_by_key(|d| d.id);
                for d in &done {
                    rt.verify_bitmatch(d);
                }
                let outputs: Vec<Vec<Vec<f32>>> =
                    done.iter().map(|d| d.outputs.to_nested()).collect();
                prop_assert_eq!(
                    &outputs, &reference,
                    "{} path, {} policy: outputs diverged across the refresh boundary",
                    path.name(), sched.name()
                );
            }
        }
    }
}

/// Registry-slot reuse: the third generation re-binds the first one's
/// A/B slot (replacing the flash image and invalidating stale FTL-cached
/// pages), and results stay bit-identical throughout. Dense layout + the
/// NDP path keep the FTL page cache hot, so a stale-cache bug would
/// surface here.
#[test]
fn slot_reuse_across_three_generations_stays_bit_identical() {
    let rows = 192u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 9);
    let plans: Vec<PlacementPlan> = [0x5EEDu64, 0xB0B0, 0xCAFE]
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            PlacementPlan::build(
                &skewed_profile(rows, s),
                &PlacementPolicy::hot_fraction(0.1 * (i as f64 + 1.0)),
            )
        })
        .collect();

    let mut cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo);
    cfg.layout = PageLayout::Dense;
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table_placed(table.clone(), plans[0].table(0));
    let mut rng = Xoshiro256::seed_from(3);
    let mut client = 0u64;
    let mut serve_round = |rt: &mut ServingRuntime| {
        let start = rt.now();
        for i in 0..6u64 {
            let batch = batch_of(&mut rng, rows, 2, 5);
            client += 1;
            rt.submit_at(
                start + SimDuration::from_us(i),
                client,
                t,
                batch,
                SlsPath::Ndp(SlsOptions::default()),
            );
        }
        for d in rt.run_until_idle() {
            rt.verify_bitmatch(&d);
        }
    };
    serve_round(&mut rt);
    assert!(rt.refresh_placement(t, plans[1].table(0)).is_some());
    serve_round(&mut rt);
    // Generation 3 reuses generation 1's registry slot (drained by now).
    assert!(rt.refresh_placement(t, plans[2].table(0)).is_some());
    serve_round(&mut rt);
    assert_eq!(rt.plan_generations(t), 3);
    assert_eq!(rt.stats().plan_refreshes.get(), 2);
}

/// A refresh converts an *unplaced* table: promoted rows migrate off the
/// identity-mapped image, then admissions route hybrid.
#[test]
fn refresh_adopts_an_unplaced_table() {
    let rows = 128u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 4);
    let plan = PlacementPlan::build(
        &skewed_profile(rows, 0x77),
        &PlacementPolicy::hot_fraction(0.25),
    );
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo);
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table(table.clone());
    assert!(!rt.has_tier());
    assert!(rt.refresh_placement(t, plan.table(0)).is_some());
    assert!(rt.refresh_pending(t), "promotions must cost migration work");
    let mut rng = Xoshiro256::seed_from(5);
    for i in 0..8u64 {
        let batch = batch_of(&mut rng, rows, 2, 6);
        rt.submit_at(
            SimTime::from_us(i),
            i,
            t,
            batch,
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    for d in rt.run_until_idle() {
        rt.verify_bitmatch(&d);
    }
    assert!(rt.has_tier());
    assert!(!rt.refresh_pending(t));
    {
        let stats = rt.stats();
        assert_eq!(stats.plan_refreshes.get(), 1);
        assert_eq!(stats.rows_promoted.get(), plan.table(0).hot_count() as u64);
        assert_eq!(
            stats.migration_lookups.get(),
            plan.table(0).hot_count() as u64
        );
    }
    // A second round admitted after activation routes hybrid.
    let start = rt.now();
    for i in 0..8u64 {
        let batch = batch_of(&mut rng, rows, 2, 6);
        rt.submit_at(
            start + SimDuration::from_us(i),
            100 + i,
            t,
            batch,
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    for d in rt.run_until_idle() {
        rt.verify_bitmatch(&d);
    }
    assert!(
        rt.stats().tier.hits() > 0,
        "post-activation admissions hit the tier"
    );
}

/// Submits `n` two-output NDP requests one microsecond apart from the
/// runtime's instant on.
fn submit_wave(rt: &mut ServingRuntime, t: ServedTableId, rng: &mut Xoshiro256, n: u64) {
    let rows = rt.shard_map(t).rows();
    let start = rt.now();
    for i in 0..n {
        let batch = batch_of(rng, rows, 2, 6);
        let ndp = SlsPath::Ndp(SlsOptions::default());
        rt.submit_at(start + SimDuration::from_us(i), i, t, batch, ndp);
    }
}

/// A refresh is deferred (`None`) while an earlier refresh's migration
/// is in flight, and accepted once it has drained. Only accepted
/// refreshes count as generations.
#[test]
fn refresh_waits_for_the_previous_migration() {
    let rows = 128u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 4);
    let plan = |seed| {
        PlacementPlan::build(
            &skewed_profile(rows, seed),
            &PlacementPolicy::hot_fraction(0.25),
        )
    };
    let (a, b) = (plan(0x77), plan(0x78));
    let mut rt = ServingRuntime::new(&ServingConfig::small_wide(2, SchedulePolicy::Fifo));
    let t = rt.add_table(table);
    let mut rng = Xoshiro256::seed_from(21);
    submit_wave(&mut rt, t, &mut rng, 6);
    assert_eq!(rt.refresh_placement(t, a.table(0)), Some(1));
    assert!(rt.refresh_pending(t), "promotions must cost migration work");
    assert_eq!(rt.refresh_placement(t, b.table(0)), None);
    assert_eq!(rt.plan_generations(t), 2);
    for d in rt.run_until_idle() {
        rt.verify_bitmatch(&d);
    }
    assert!(!rt.refresh_pending(t));
    assert_eq!(rt.refresh_placement(t, b.table(0)), Some(2));
    submit_wave(&mut rt, t, &mut rng, 6);
    for d in rt.run_until_idle() {
        rt.verify_bitmatch(&d);
    }
    assert_eq!(rt.plan_generations(t), 3);
    assert_eq!(rt.stats().plan_refreshes.get(), 2);
}

/// A refresh is deferred (`None`) while the plan slot it would re-bind
/// still has sub-batches in flight. A refresh with the active hot rows
/// promotes nothing, so it swaps plans at once; a second refresh right
/// after it targets the slot the first wave of requests still occupies.
#[test]
fn refresh_waits_for_its_slot_to_drain() {
    let rows = 128u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 4);
    let plan = PlacementPlan::build(
        &skewed_profile(rows, 0x77),
        &PlacementPolicy::hot_fraction(0.25),
    );
    let mut rt = ServingRuntime::new(&ServingConfig::small_wide(2, SchedulePolicy::Fifo));
    let t = rt.add_table_placed(table, plan.table(0));
    let mut rng = Xoshiro256::seed_from(22);
    submit_wave(&mut rt, t, &mut rng, 8);
    let mut done: Vec<_> = rt
        .step()
        .expect("no invariant violation")
        .into_iter()
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(rt.refresh_placement(t, plan.table(0)), Some(1));
    assert!(!rt.refresh_pending(t), "the same hot rows migrate nothing");
    assert_eq!(rt.refresh_placement(t, plan.table(0)), None);
    done.extend(rt.run_until_idle());
    assert_eq!(done.len(), 8);
    assert_eq!(rt.refresh_placement(t, plan.table(0)), Some(2));
    submit_wave(&mut rt, t, &mut rng, 8);
    done.extend(rt.run_until_idle());
    for d in &done {
        rt.verify_bitmatch(d);
    }
    assert_eq!(rt.plan_generations(t), 3);
    assert_eq!(rt.stats().plan_refreshes.get(), 2);
}

/// Only a fired event moves simulated time. Between two `step()`s,
/// refreshing a placement (which dispatches migration work onto idle
/// shards while later arrivals wait in the queue), submitting,
/// registering a placed table, injecting faults and enabling adaptation
/// leave the runtime clock where it was, and no shard clock passes it: a
/// shard such a call visits is brought up to the runtime's instant, never
/// beyond, even when its next device event is the earliest pending one.
#[test]
fn runtime_calls_between_steps_never_run_a_device_ahead() {
    let rows = 128u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 4);
    let plan = PlacementPlan::build(
        &skewed_profile(rows, 0x77),
        &PlacementPolicy::hot_fraction(0.25),
    );
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table(table.clone());
    let mut rng = Xoshiro256::seed_from(8);
    let ndp = SlsPath::Ndp(SlsOptions::default());
    // A first wave, then a second one far behind it.
    for i in 0..12u64 {
        let at = SimTime::from_us(3 * i + if i < 6 { 0 } else { 50_000 });
        rt.submit_at(at, i, t, batch_of(&mut rng, rows, 2, 6), ndp);
    }
    let mut done = Vec::new();
    while done.len() < 6 {
        done.extend(rt.step().expect("no invariant violation"));
    }
    let clocks = |rt: &mut ServingRuntime| -> Vec<SimTime> {
        (0..rt.shards())
            .map(|i| rt.shard_system_mut(i).now())
            .collect()
    };
    let (now, before) = (rt.now(), clocks(&mut rt));
    for call in 0..5 {
        match call {
            0 => assert!(rt.refresh_placement(t, plan.table(0)).is_some()),
            1 => {
                let batch = batch_of(&mut rng, rows, 2, 6);
                rt.submit_at(now + SimDuration::from_us(1), 99, t, batch, ndp);
            }
            2 => {
                rt.add_table_placed(table.clone(), plan.table(0));
            }
            3 => rt.inject_faults(&FaultConfig::quiet(3)),
            _ => rt.enable_adaptive(AdaptivePolicy {
                epoch_requests: 4,
                decay: 0.5,
                budget_rows: 16,
                min_hit_gain: 0.02,
            }),
        }
        assert_eq!(rt.now(), now, "call {call} moved the runtime clock");
        for (shard, (&at, &was)) in clocks(&mut rt).iter().zip(&before).enumerate() {
            assert!(
                was <= at && at <= now,
                "call {call} moved shard {shard} from {was} to {at} (runtime at {now})"
            );
        }
        assert!(
            (0..rt.shards()).any(|i| rt.shard_system_mut(i).next_event_time().is_some()),
            "the refresh put migration work on the devices"
        );
    }
    assert!(
        rt.refresh_pending(t),
        "the refresh's migration is still in flight"
    );
    done.extend(rt.run_until_idle());
    assert_eq!(done.len(), 13);
    for d in &done {
        rt.verify_bitmatch(d);
    }
}

/// A table registered after a placed one created the DRAM tier is still
/// sharded over the device shards only, and the device-shard gauges leave
/// the tier out; requests on both tables, over every path, bit-match the
/// reference while the tier serves the placed table's hot rows.
#[test]
fn registration_after_the_tier_exists_shards_over_devices_only() {
    let rows = 128u64;
    let placed = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 6);
    let plain = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 7);
    let plan = PlacementPlan::build(
        &skewed_profile(rows, 0x99),
        &PlacementPolicy::hot_fraction(0.25),
    );
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    let t1 = rt.add_table_placed(placed.clone(), plan.table(0));
    assert!(rt.has_tier());
    let t2 = rt.add_table(plain.clone());
    assert_eq!(rt.shards(), 2);
    assert_eq!(rt.shard_map(t2).shards(), 2);
    let mut rng = Xoshiro256::seed_from(13);
    let mut at = 0;
    for path in paths() {
        for t in [t1, t2] {
            for _ in 0..4 {
                let batch = batch_of(&mut rng, rows, 2, 6);
                rt.submit_at(SimTime::from_us(at), at, t, batch, path);
                at += 1;
            }
        }
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), 24);
    for d in &done {
        let table = if d.table == t1 { &placed } else { &plain };
        assert_eq!(d.outputs.to_nested(), sls_reference(table, &d.batch));
    }
    assert_eq!(rt.shard_occupancy().len(), 2);
    assert_eq!(rt.channel_utilisation().len(), 2);
    assert_eq!(rt.ftl_cache_stats().len(), 2);
    assert!(rt.tier_occupancy() > 0.0);
}

/// The full online loop under drifting skew: the adaptive runtime
/// re-profiles, refreshes plans (with real migration cost) and keeps the
/// DRAM tier's hit rate up while a stale static plan would have decayed —
/// every output still bit-identical to the reference.
#[test]
fn adaptive_runtime_refreshes_under_drift_and_stays_exact() {
    let rows = 1024u64;
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 16, Quantization::F32), 11);
    let t = rt.add_table(table);
    rt.enable_adaptive(AdaptivePolicy {
        epoch_requests: 16,
        decay: 0.5,
        budget_rows: 128,
        min_hit_gain: 0.02,
    });
    // Rotating hot set: 64 requests x 16 lookups per phase.
    let drift = DriftingZipf::new(rows, 1.3, 21, 64 * 16);
    let mut gen = LoadGen::new(
        &rt,
        vec![t],
        TrafficSpec {
            outputs: 4,
            lookups_per_output: 4,
            zipf_exponent: 1.3,
        },
        LoadMode::Closed {
            clients: 8,
            think: SimDuration::ZERO,
        },
        7,
    )
    .with_streams(vec![RowStream::Drifting(drift)])
    .with_verify_every(1);
    let verified = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 192);
    assert_eq!(verified, 192, "every output bit-matched");
    let s = rt.stats();
    assert!(
        s.plan_refreshes.get() >= 2,
        "adaptation must refresh across rotations (got {})",
        s.plan_refreshes.get()
    );
    assert!(s.rows_promoted.get() > 0);
    assert!(s.migration_lookups.get() > 0);
    assert!(
        s.tier_hit_rate() > 0.2,
        "adaptive tier must absorb traffic despite drift (hit rate {})",
        s.tier_hit_rate()
    );
    assert!(rt.adaptive_epochs() >= 2);
}

/// With every accessed row pinned hot, the DRAM tier absorbs all the
/// traffic it was profiled on and the device shards see none of it.
#[test]
fn full_hot_coverage_routes_everything_to_the_tier() {
    let rows = 256u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 8, Quantization::F32), 2);
    let mut prof = FreqProfiler::new();
    let t = prof.add_table(rows);
    prof.profile_stream(t, 0..rows); // every row accessed once
    let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(1.0));

    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let id = rt.add_table_placed(table, plan.table(0));
    assert!(rt.has_tier());
    let mut rng = Xoshiro256::seed_from(9);
    for i in 0..8u64 {
        let batch = batch_of(&mut rng, rows, 2, 6);
        rt.submit_at(
            SimTime::from_us(i),
            i,
            id,
            batch,
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), 8);
    for d in &done {
        rt.verify_bitmatch(d);
    }
    let stats = rt.stats();
    assert_eq!(stats.tier.misses(), 0, "no lookup may reach a device shard");
    assert_eq!(stats.tier.hits(), 8 * 2 * 6);
    assert_eq!(stats.tier_hit_rate(), 1.0);
    assert!(stats.tier_service.quantiles().count > 0);
    assert_eq!(stats.device_service.quantiles().count, 0);
    // The tier's DRAM gathers show up on the requests' critical paths.
    let report = critical_path_report(&rt.snapshot_trace());
    let [ndp] = &report.paths[..] else {
        panic!("one served path expected, got {}", report.paths.len());
    };
    assert!(
        ndp.phase_ns[Phase::TierGather.index()] > 0,
        "tier requests charged nothing to the tier gather"
    );
}

/// A zero hot budget still packs the flash image (and still bit-matches);
/// the runtime never spins up a tier for it.
#[test]
fn zero_budget_packs_without_a_tier() {
    let rows = 128u64;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, 4, Quantization::F32), 3);
    let prof = skewed_profile(rows, 77);
    let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.0));

    let mut cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo);
    cfg.layout = PageLayout::Dense;
    let mut rt = ServingRuntime::new(&cfg);
    let id = rt.add_table_placed(table.clone(), plan.table(0));
    assert!(!rt.has_tier());
    let mut rng = Xoshiro256::seed_from(1);
    let batch = batch_of(&mut rng, rows, 3, 10);
    let reference = sls_reference(&table, &batch);
    rt.submit_at(
        SimTime::ZERO,
        0,
        id,
        batch,
        SlsPath::Ndp(SlsOptions::default()),
    );
    let done = rt.run_until_idle();
    assert_eq!(done[0].outputs.to_nested(), reference);
    assert_eq!(rt.stats().tier.hits(), 0);
    assert_eq!(rt.stats().tier_hit_rate(), 0.0);
}

/// Acceptance bar (quick-scale workload, 2 pipelined shards, FIFO): at
/// every swept skew the better of a 5 % and a 20 % DRAM tier in front of
/// the NDP path serves at least 1.3× the all-NDP throughput.
#[test]
fn hybrid_tier_outruns_all_ndp_at_every_skew() {
    for skew in [1.05, 1.2, 1.5] {
        let prof = quick_scale::profile(skew);
        let run = |hot: f64| {
            let plan = (hot > 0.0)
                .then(|| PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(hot)));
            let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(4);
            let mut rt = ServingRuntime::new(&cfg);
            let tables = quick_scale::add_tables(&mut rt, quick_scale::DIM, plan.as_ref());
            let (clients, path) = (quick_scale::CLIENTS, quick_scale::ndp());
            quick_scale::serve(&mut rt, tables, skew, clients, path);
            rt.stats().lookups_per_sim_sec()
        };
        let gain = run(0.05).max(run(0.2)) / run(0.0);
        assert!(
            gain >= 1.3,
            "hybrid placement gained only {gain:.2}x over all-NDP at skew {skew}"
        );
    }
}

/// Acceptance bar: on a dense-layout table far larger than the FTL page
/// cache, frequency-ordered packing (zero hot budget) puts the co-hot head
/// of the Zipf stream on shared pages, so the cache's hit rate must not
/// drop below the unpacked image's.
#[test]
fn heat_packing_does_not_lower_the_ftl_cache_hit_rate() {
    let rows = 8192u64;
    let run = |packed: bool| {
        let mut cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(4);
        cfg.layout = PageLayout::Dense;
        let mut rt = ServingRuntime::new(&cfg);
        let table = EmbeddingTable::procedural(
            TableSpec::new(rows, quick_scale::DIM, Quantization::F32),
            1,
        );
        let id = if packed {
            let mut prof = FreqProfiler::new();
            let t = prof.add_table(rows);
            let mut zipf = ZipfTrace::new(rows, 1.2, 0x9E37);
            prof.profile_zipf(t, &mut zipf, quick_scale::PROFILE_SAMPLES);
            let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.0));
            rt.add_table_placed(table, plan.table(0))
        } else {
            rt.add_table(table)
        };
        quick_scale::serve(
            &mut rt,
            vec![id],
            1.2,
            quick_scale::CLIENTS,
            quick_scale::ndp(),
        );
        let mut ftl = HitStats::new();
        for shard in rt.ftl_cache_stats() {
            ftl.merge(shard);
        }
        ftl.hit_rate()
    };
    let (unpacked, packed) = (run(false), run(true));
    assert!(
        packed >= unpacked,
        "packing lowered the FTL page-cache hit rate: {unpacked:.4} -> {packed:.4}"
    );
}

/// Acceptance bar: under a Zipf-1.5 stream whose rank map churns by 35 %
/// every 384 requests, with a 128-row global DRAM budget, the adaptive
/// runtime keeps at least 70 % of the throughput of an oracle that is
/// handed a perfectly profiled plan each phase for free, while the static
/// phase-0 plan goes stale: it serves less than the adaptive arm and its
/// tier hit rate sinks below anything the adaptive arm sees.
#[test]
fn adaptive_placement_keeps_most_of_the_oracle_under_drift() {
    const PHASES: u64 = 4;
    const PHASE_REQUESTS: usize = 384;
    const BUDGET_ROWS: usize = 128;
    let seed = |t: usize| 0xD41F7 + t as u64 * 7919;
    // The generator is shared round-robin across tables, so each table
    // sees `1/TABLES` of a phase's requests.
    let period = (PHASE_REQUESTS / quick_scale::TABLES) as u64
        * quick_scale::spec(1.5).lookups_per_request() as u64;
    let stream =
        |t: usize| DriftingZipf::new(quick_scale::ROWS, 1.5, seed(t), period).with_churn(0.35);
    // What an oracle that knows the phase's distribution would plan.
    let phase_plan = |phase: u64| {
        let mut prof = FreqProfiler::new();
        for t in 0..quick_scale::TABLES {
            let id = prof.add_table(quick_scale::ROWS);
            let mut pinned = stream(t).pinned(phase);
            prof.profile_stream(
                id,
                (0..quick_scale::PROFILE_SAMPLES).map(|_| pinned.next_id()),
            );
        }
        PlacementPlan::build_global(&prof, BUDGET_ROWS)
    };
    // Micro-batching amortises per-command fixed costs, so capacity
    // tracks cold lookup volume — the quantity placement controls — and
    // 48 clients keep it the binding constraint.
    let start = |plan: &PlacementPlan, streams: Vec<RowStream>| {
        let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(16)).with_depth(4);
        let mut rt = ServingRuntime::new(&cfg);
        let tables = quick_scale::add_tables(&mut rt, quick_scale::DIM, Some(plan));
        let gen = quick_scale::load_gen(&rt, tables, 1.5, 48).with_streams(streams);
        (rt, gen)
    };
    // One phase's statistics (the generator resets them per run).
    let phase = |rt: &mut ServingRuntime, gen: &mut LoadGen| {
        let verified = gen.run(rt, quick_scale::ndp(), PHASE_REQUESTS);
        assert!(verified > 0, "bit-match went unchecked");
        rt.stats().clone()
    };
    let tput = |phases: &[ServingStats]| {
        let lookups: u64 = phases.iter().map(|s| s.lookups.get()).sum();
        let secs: f64 = phases.iter().map(|s| s.makespan().as_secs_f64()).sum();
        lookups as f64 / secs
    };
    let drifting = || {
        (0..quick_scale::TABLES)
            .map(|t| RowStream::Drifting(stream(t)))
            .collect::<Vec<_>>()
    };

    let phase0 = phase_plan(0);
    let live_arm = |adaptive: bool| -> Vec<ServingStats> {
        let (mut rt, mut gen) = start(&phase0, drifting());
        if adaptive {
            rt.enable_adaptive(AdaptivePolicy {
                epoch_requests: 48,
                decay: 0.8,
                budget_rows: BUDGET_ROWS,
                min_hit_gain: 0.03,
            });
        }
        (0..PHASES).map(|_| phase(&mut rt, &mut gen)).collect()
    };
    let stale = live_arm(false);
    let adaptive = live_arm(true);
    let oracle: Vec<ServingStats> = (0..PHASES)
        .map(|p| {
            let pinned = (0..quick_scale::TABLES)
                .map(|t| RowStream::Drifting(stream(t).pinned(p)))
                .collect();
            let (mut rt, mut gen) = start(&phase_plan(p), pinned);
            phase(&mut rt, &mut gen)
        })
        .collect();

    let (stale_tput, adaptive_tput) = (tput(&stale), tput(&adaptive));
    let recovered = adaptive_tput / tput(&oracle);
    assert!(
        recovered >= 0.70,
        "adaptive placement kept only {:.0}% of the oracle under drift",
        recovered * 100.0
    );
    assert!(
        stale_tput < adaptive_tput,
        "the stale plan ({stale_tput:.0}) should serve less than the adaptive arm \
         ({adaptive_tput:.0})"
    );
    let total = |f: fn(&ServingStats) -> u64, arm: &[ServingStats]| arm.iter().map(f).sum::<u64>();
    assert_eq!(total(|s| s.plan_refreshes.get(), &stale), 0);
    assert!(
        total(|s| s.plan_refreshes.get(), &adaptive) >= 2,
        "never re-planned"
    );
    assert!(total(|s| s.rows_promoted.get(), &adaptive) > 0);
    assert!(total(|s| s.migration_lookups.get(), &adaptive) > 0);
    let worst_hit = |arm: &[ServingStats]| {
        arm[1..]
            .iter()
            .map(|s| s.tier_hit_rate())
            .fold(f64::INFINITY, f64::min)
    };
    assert!(
        worst_hit(&stale) < worst_hit(&adaptive),
        "the stale tier should decay below the adaptive one ({:.3} vs {:.3})",
        worst_hit(&stale),
        worst_hit(&adaptive)
    );
}
