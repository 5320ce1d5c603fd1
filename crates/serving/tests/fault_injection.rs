//! Resilience contract of the serving stack under deterministic fault
//! injection:
//!
//! * a zero-rate fault plan is **bit-identical** — results, timings and
//!   stats — to running with no plan at all, on every path and policy
//!   (the plumbing itself must not perturb the simulation);
//! * a seeded fault schedule **replays** bit-identically;
//! * under randomized fault schedules every *served* (non-flagged) slot
//!   stays bit-identical to `sls_reference` — degradation is always
//!   explicit, never silently wrong bits;
//! * exhausted retry budgets, deadlines and full-shard brownouts all
//!   degrade gracefully: the fleet keeps serving, flagged, without
//!   panicking or hanging.

use recssd::{BrownoutWindow, FaultConfig, LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    CompletedRequest, FaultPolicy, LoadGen, LoadMode, SchedulePolicy, ServingConfig,
    ServingRuntime, ServingStats, SlsPath, SpanRec, TrafficSpec,
};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::stats::Quantiles;
use recssd_sim::{SimDuration, SimTime};

mod quick_scale;

const ROWS: u64 = 1024;

fn table() -> EmbeddingTable {
    EmbeddingTable::procedural(TableSpec::new(ROWS, 16, Quantization::F32), 5)
}

fn paths() -> [SlsPath; 3] {
    [
        SlsPath::Dram,
        SlsPath::Baseline(SlsOptions::default()),
        SlsPath::Ndp(SlsOptions::default()),
    ]
}

fn batches(seed: u64, n: usize) -> Vec<LookupBatch> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| {
            LookupBatch::new(
                (0..3)
                    .map(|_| (0..6).map(|_| rng.gen_range(0..ROWS)).collect())
                    .collect(),
            )
        })
        .collect()
}

/// Everything observable about one completion, for bit-exact comparison.
#[derive(Debug, PartialEq)]
struct Snap {
    id: u64,
    finish_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    outputs: Vec<f32>,
    missing_lookups: u64,
}

fn run_workload(
    shards: usize,
    sched: SchedulePolicy,
    path: SlsPath,
    faults: Option<&FaultConfig>,
    policy: Option<FaultPolicy>,
    work: &[LookupBatch],
) -> (Vec<Snap>, ServingStats) {
    let cfg = ServingConfig::small_wide(shards, sched);
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table(table());
    if let Some(cfg) = faults {
        rt.inject_faults(cfg);
    }
    if let Some(p) = policy {
        rt.set_fault_policy(p);
    }
    for (i, b) in work.iter().enumerate() {
        rt.submit_at(SimTime::from_us(i as u64), i as u64, t, b.clone(), path);
    }
    let done = rt.run_until_idle();
    for d in &done {
        rt.verify_bitmatch(d);
    }
    let snaps = done
        .iter()
        .map(|d| Snap {
            id: d.id.0,
            finish_ns: d.finish.as_ns(),
            queue_ns: d.queue.as_ns(),
            service_ns: d.service.as_ns(),
            outputs: d.outputs.as_slice().to_vec(),
            missing_lookups: d.missing_lookups,
        })
        .collect();
    (snaps, rt.stats().clone())
}

/// Satellite: a fault subsystem armed with all-zero probabilities is
/// bit-identical — results, timings, stats — to not arming it, on all
/// three paths and both scheduling policies. The RNG draws advance but
/// must never perturb the simulated timeline.
#[test]
fn zero_rate_fault_plan_is_bit_identical_to_disabled() {
    let work = batches(11, 24);
    for path in paths() {
        for sched in [SchedulePolicy::Fifo, SchedulePolicy::micro_batch(8)] {
            let (base_snaps, base_stats) = run_workload(2, sched, path, None, None, &work);
            let quiet = FaultConfig::quiet(0xDEAD_BEEF);
            let (fault_snaps, fault_stats) = run_workload(
                2,
                sched,
                path,
                Some(&quiet),
                Some(FaultPolicy::default()),
                &work,
            );
            assert_eq!(base_snaps, fault_snaps, "{path:?}/{sched:?} diverged");
            assert_eq!(base_stats, fault_stats, "{path:?}/{sched:?} stats diverged");
            assert_eq!(fault_stats.faults.get(), 0);
            assert_eq!(fault_stats.degraded.get(), 0);
        }
    }
}

/// Satellite: the same seed replays the same fault schedule — two runs
/// are bit-identical down to retry counts and completion timings.
#[test]
fn seeded_fault_schedule_replays_identically() {
    let work = batches(23, 32);
    let mut cfg = FaultConfig::quiet(7);
    cfg.transient_read_error_rate = 0.05;
    cfg.uncorrectable_rate = 0.02;
    cfg.stall_rate = 0.05;
    let policy = FaultPolicy::default();
    for path in [
        SlsPath::Baseline(SlsOptions::default()),
        SlsPath::Ndp(SlsOptions::default()),
    ] {
        let a = run_workload(
            2,
            SchedulePolicy::Fifo,
            path,
            Some(&cfg),
            Some(policy),
            &work,
        );
        let b = run_workload(
            2,
            SchedulePolicy::Fifo,
            path,
            Some(&cfg),
            Some(policy),
            &work,
        );
        assert_eq!(a, b, "{path:?}: same seed must replay identically");
    }
}

/// Tentpole property: under a randomized uncorrectable-fault schedule,
/// every completed request still verifies — served slots bit-match
/// `sls_reference`, missing rows are explicitly flagged. Retries and
/// fallbacks absorb most faults; nothing hangs.
#[test]
fn randomized_faults_never_serve_wrong_bits() {
    let mut cfg = FaultConfig::quiet(101);
    cfg.transient_read_error_rate = 0.02;
    cfg.uncorrectable_rate = 0.05;
    let rt_cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&rt_cfg);
    let t = rt.add_table(table());
    rt.inject_faults(&cfg);
    rt.set_fault_policy(FaultPolicy::default());
    let spec = TrafficSpec {
        outputs: 3,
        lookups_per_output: 6,
        zipf_exponent: 1.2,
    };
    let mode = LoadMode::Closed {
        clients: 8,
        think: SimDuration::ZERO,
    };
    // verify_every(1): LoadGen bit-verifies every completion internally.
    let mut gen = LoadGen::new(&rt, vec![t], spec, mode, 3).with_verify_every(1);
    let verified = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 64);
    assert_eq!(rt.stats().requests.get(), 64, "every request must complete");
    assert_eq!(verified, 64, "every completion must verify");
    assert!(
        rt.stats().faults.get() > 0,
        "schedule should inject op-level faults"
    );
    assert!(rt.stats().retries.get() > 0, "faults should drive retries");
    // Retries, fallbacks and aborted operators all hand their page images
    // back: at idle every image a shard's flash pool ever handed out is
    // retired or sits in its FTL page cache.
    for shard in 0..rt.shards() {
        let dev = rt.shard_system_mut(shard).device();
        assert!(dev.idle(), "shard {shard} still busy");
        assert_eq!(
            dev.ftl().flash().page_images_out(),
            dev.ftl().cached_pages(),
            "shard {shard} leaked page images"
        );
    }
}

/// Transient (ECC-correctable) faults are absorbed inside the device:
/// they cost latency but never surface as host-visible errors, so the
/// serving layer sees zero faults and zero degradation.
#[test]
fn transient_faults_stay_invisible_to_serving() {
    let work = batches(31, 24);
    let mut cfg = FaultConfig::quiet(13);
    cfg.transient_read_error_rate = 0.5;
    let (snaps, stats) = run_workload(
        2,
        SchedulePolicy::Fifo,
        SlsPath::Ndp(SlsOptions::default()),
        Some(&cfg),
        Some(FaultPolicy::default()),
        &work,
    );
    assert_eq!(stats.requests.get(), 24);
    assert_eq!(stats.faults.get(), 0, "transient faults must not surface");
    assert_eq!(stats.degraded.get(), 0);
    assert!(snaps.iter().all(|s| s.missing_lookups == 0));
}

/// Acceptance bar (quick-scale workload, 2 shards at depth 2,
/// micro-batched NDP): a 1 % transient read-error rate is absorbed by
/// the in-device ECC re-senses — every request completes, every
/// completion bit-verifies, none is degraded — at a cost of at most 15 %
/// of the fault-free throughput.
#[test]
fn one_percent_transient_faults_cost_little_throughput() {
    let run = |rate: f64| {
        let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
        let mut rt = ServingRuntime::new(&cfg);
        let tables = quick_scale::add_tables(&mut rt, quick_scale::DIM, None);
        if rate > 0.0 {
            let mut fc = FaultConfig::quiet(0xFA17);
            fc.transient_read_error_rate = rate;
            rt.inject_faults(&fc);
        }
        rt.set_fault_policy(FaultPolicy::default());
        let verified = quick_scale::load_gen(&rt, tables, 1.2, quick_scale::CLIENTS)
            .with_verify_every(1)
            .run(&mut rt, quick_scale::ndp(), quick_scale::REQUESTS);
        let s = rt.stats();
        assert_eq!(s.requests.get(), quick_scale::REQUESTS as u64);
        assert_eq!(verified, s.requests.get(), "unverified completion");
        assert_eq!(s.degraded.get(), 0, "transient faults must not degrade");
        assert_eq!(s.missing_lookups.get(), 0);
        s.lookups_per_sim_sec()
    };
    let (clean, faulty) = (run(0.0), run(0.01));
    assert!(faulty < clean, "the fault plan never fired");
    assert!(
        faulty >= 0.85 * clean,
        "1% transient faults left only {:.1}% of fault-free throughput",
        faulty / clean * 100.0
    );
}

/// When every retry and the baseline fallback fail too (100%
/// uncorrectable rate), requests complete *degraded*: all lost rows are
/// counted, their slots flagged, nothing panics or hangs, and the
/// flagged-slot-aware verifier accepts the result.
#[test]
fn exhausted_retries_serve_degraded_flagged() {
    let work = batches(47, 12);
    let mut cfg = FaultConfig::quiet(29);
    cfg.uncorrectable_rate = 1.0;
    let policy = FaultPolicy {
        max_retries: 1,
        fallback_after: 1,
        ..FaultPolicy::default()
    };
    let (snaps, stats) = run_workload(
        2,
        SchedulePolicy::Fifo,
        SlsPath::Ndp(SlsOptions::default()),
        Some(&cfg),
        Some(policy),
        &work,
    );
    assert_eq!(stats.requests.get(), 12, "fleet must keep serving");
    assert_eq!(
        stats.degraded.get(),
        12,
        "every request loses its device rows"
    );
    assert!(
        stats.fallbacks.get() > 0,
        "NDP subs must fall back to baseline"
    );
    let total: u64 = work.iter().map(|b| b.total_lookups() as u64).sum();
    assert_eq!(
        stats.missing_lookups.get(),
        total,
        "all device rows are lost"
    );
    for s in &snaps {
        assert!(s.missing_lookups > 0, "degradation must be flagged");
    }
}

/// Tentpole acceptance: a full-shard brownout combined with a burst of
/// uncorrectable errors trips that shard's circuit breaker; the fleet
/// keeps serving (degraded, flagged) through the window without
/// panicking or hanging, and healthy shards stay correct.
#[test]
fn brownout_trips_breaker_and_fleet_keeps_serving() {
    let rt_cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(2);
    let mut rt = ServingRuntime::new(&rt_cfg);
    let t = rt.add_table(table());
    let mut sick = FaultConfig::quiet(57);
    sick.uncorrectable_rate = 1.0;
    sick.brownouts = vec![BrownoutWindow {
        start: SimTime::ZERO,
        end: SimTime::from_ms(10),
        factor: 4,
    }];
    rt.inject_faults_on_shard(0, &sick);
    rt.set_fault_policy(FaultPolicy {
        max_retries: 1,
        fallback_after: 1,
        breaker_window: 4,
        breaker_threshold: 0.5,
        breaker_cooldown: SimDuration::from_us(200),
        deadline: Some(SimDuration::from_ms(5)),
        ..FaultPolicy::default()
    });
    let work = batches(71, 32);
    for (i, b) in work.iter().enumerate() {
        rt.submit_at(
            SimTime::from_us(4 * i as u64),
            i as u64,
            t,
            b.clone(),
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), 32, "fleet must serve through the brownout");
    for d in &done {
        rt.verify_bitmatch(d); // non-flagged slots stay bit-exact
    }
    let s = rt.stats();
    assert!(s.breaker_trips.get() >= 1, "error burst must trip breaker");
    assert!(s.degraded.get() > 0, "sick-shard rows are lost, flagged");
    // The healthy shard's partials survive in aggregate: losses stay
    // strictly below the offered lookups. (A late request can lose its
    // healthy-shard rows too when the deadline fires while they are
    // still queued behind the congested fleet — that is the deadline
    // doing its job, so no per-request bound holds.)
    assert!(s.missing_lookups.get() < s.lookups.get());
}

/// A request whose device work outlives its deadline is served at the
/// deadline with whatever merged: still-owed slots are flagged missing,
/// latency is capped at the deadline, and the late completion is
/// discarded silently (exactly one completion per request).
#[test]
fn deadline_serves_partial_results_on_time() {
    let rt_cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo);
    let mut rt = ServingRuntime::new(&rt_cfg);
    let t = rt.add_table(table());
    // Pure slowdown, no errors: a brownout stretching every device
    // latency far past the deadline.
    let mut slow = FaultConfig::quiet(91);
    slow.brownouts = vec![BrownoutWindow {
        start: SimTime::ZERO,
        end: SimTime::from_ms(200),
        factor: 1000,
    }];
    rt.inject_faults_on_shard(0, &slow);
    let deadline = SimDuration::from_ms(2);
    rt.set_fault_policy(FaultPolicy {
        deadline: Some(deadline),
        ..FaultPolicy::default()
    });
    let work = batches(83, 4);
    for (i, b) in work.iter().enumerate() {
        rt.submit_at(
            SimTime::from_us(i as u64),
            i as u64,
            t,
            b.clone(),
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), 4, "exactly one completion per request");
    for (i, d) in done.iter().enumerate() {
        assert!(d.is_degraded(), "device rows cannot make the deadline");
        assert_eq!(
            d.finish.as_ns(),
            SimTime::from_us(i as u64).as_ns() + deadline.as_ns(),
            "served exactly at the deadline"
        );
        assert_eq!(d.e2e(), deadline, "latency capped at the deadline");
        rt.verify_bitmatch(d);
    }
    assert_eq!(rt.stats().degraded.get(), 4);
    assert_eq!(rt.stats().breaker_trips.get(), 0, "slowdown is not error");
}

/// Two device shards with shard 1 impaired by `sick` and `policy` in
/// force. Each batch has an output on shard 0's rows only, one on shard
/// 1's only and one drawing from the whole table, in rotating order.
/// Every completion must flag exactly the slots holding a row on shard
/// 1, count exactly those rows missing, and bit-match the reference
/// everywhere else.
fn shard_one_rows_go_missing(sick: &FaultConfig, policy: FaultPolicy) {
    let rt_cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo);
    let mut rt = ServingRuntime::new(&rt_cfg);
    let t = rt.add_table(table());
    rt.inject_faults_on_shard(1, sick);
    rt.set_fault_policy(policy);
    let mut rng = Xoshiro256::seed_from(0x5107);
    let ranges = [0..ROWS / 2, ROWS / 2..ROWS, 0..ROWS];
    let work: Vec<LookupBatch> = (0..8)
        .map(|i| {
            LookupBatch::new(
                (0..3)
                    .map(|k| {
                        let range = &ranges[(i + k) % 3];
                        (0..4).map(|_| rng.gen_range(range.clone())).collect()
                    })
                    .collect(),
            )
        })
        .collect();
    for (i, b) in work.iter().enumerate() {
        rt.submit_at(
            SimTime::from_us(500 * i as u64),
            i as u64,
            t,
            b.clone(),
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), work.len());
    let map = *rt.shard_map(t);
    for d in &done {
        let on_sick = |ids: &[u64]| ids.iter().filter(|&&r| map.shard_of(r) == 1).count();
        let per_slot: Vec<usize> = d.batch.per_output().iter().map(on_sick).collect();
        let lost: usize = per_slot.iter().sum();
        assert_eq!(d.missing_lookups, lost as u64, "request {:?}", d.id);
        let expected: Vec<bool> = per_slot.iter().map(|&n| n > 0).collect();
        assert_eq!(d.missing_slots, expected, "request {:?}", d.id);
        rt.verify_bitmatch(d);
    }
}

/// A sub-batch dropped on an exhausted retry budget flags exactly the
/// output slots it carried rows for.
#[test]
fn dropped_sub_batches_flag_exactly_their_slots() {
    let mut sick = FaultConfig::quiet(0xDEAD);
    sick.uncorrectable_rate = 1.0;
    let policy = FaultPolicy {
        max_retries: 0,
        ..FaultPolicy::default()
    };
    shard_one_rows_go_missing(&sick, policy);
}

/// A deadline flags exactly the slots still owed when it fires: shard 0
/// answers long before it, shard 1 long after.
#[test]
fn deadline_flags_exactly_the_slots_still_owed() {
    let mut slow = FaultConfig::quiet(0x51);
    slow.brownouts = vec![BrownoutWindow {
        start: SimTime::ZERO,
        end: SimTime::from_ms(200),
        factor: 1000,
    }];
    let policy = FaultPolicy {
        deadline: Some(SimDuration::from_ms(2)),
        ..FaultPolicy::default()
    };
    shard_one_rows_go_missing(&slow, policy);
}

/// FNV-1a over a byte stream, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn quantiles(&mut self, q: Quantiles) {
        for v in [
            q.count,
            q.mean.to_bits(),
            q.p50,
            q.p95,
            q.p99,
            q.p999,
            q.max,
        ] {
            self.u64(v);
        }
    }
}

/// FNV-1a over every [`recssd_serving::ServingStats`] field in
/// declaration order: histograms as their quantile summary, counters as
/// values, the tier as hits then misses, the private per-path histograms
/// through `ServingStats::attribution`, the makespan window last.
fn stats_digest(rt: &ServingRuntime) -> u64 {
    let s = rt.stats();
    let mut h = Fnv::new();
    for q in [&s.queue, &s.service, &s.e2e] {
        h.quantiles(q.quantiles());
    }
    for c in [
        &s.requests,
        &s.lookups,
        &s.ops_dispatched,
        &s.subs_dispatched,
    ] {
        h.u64(c.get());
    }
    h.u64(s.tier.hits());
    h.u64(s.tier.misses());
    h.quantiles(s.tier_service.quantiles());
    h.quantiles(s.device_service.quantiles());
    for c in [
        &s.plan_refreshes,
        &s.rows_promoted,
        &s.rows_demoted,
        &s.migration_lookups,
        &s.faults,
        &s.retries,
        &s.fallbacks,
        &s.breaker_trips,
        &s.degraded,
        &s.missing_lookups,
    ] {
        h.u64(c.get());
    }
    for a in rt.stats().attribution() {
        h.str(a.path);
        h.u64(a.requests);
        h.quantiles(a.queue);
        h.quantiles(a.service);
        h.quantiles(a.e2e);
    }
    h.u64(s.makespan().as_ns());
    h.0
}

/// FNV-1a over the completion stream in delivery order: id, finish,
/// queue, service, output bits, missing lookups.
fn completions_digest(done: &[CompletedRequest]) -> u64 {
    let mut h = Fnv::new();
    for d in done {
        h.u64(d.id.0);
        h.u64(d.finish.as_ns());
        h.u64(d.queue.as_ns());
        h.u64(d.service.as_ns());
        for v in d.outputs.as_slice() {
            h.u64(u64::from(v.to_bits()));
        }
        h.u64(d.missing_lookups);
    }
    h.0
}

/// FNV-1a over the end-of-run telemetry as raw bits: per-shard occupancy
/// and channel utilisation, then the tier's occupancy.
fn telemetry_digest(rt: &ServingRuntime) -> u64 {
    let mut h = Fnv::new();
    for v in rt.shard_occupancy() {
        h.u64(v.to_bits());
    }
    for v in rt.channel_utilisation() {
        h.u64(v.to_bits());
    }
    h.u64(rt.tier_occupancy().to_bits());
    h.0
}

/// The span multiset with ids factored out: each span as (name, start,
/// end, pid, tid, argument, label) plus its parent's (name, start, end),
/// sorted.
fn span_keys(trace: &[SpanRec]) -> Vec<String> {
    let by_id: std::collections::HashMap<u64, usize> =
        trace.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    assert_eq!(by_id.len(), trace.len(), "span ids must be unique");
    let mut keyed: Vec<String> = trace
        .iter()
        .map(|s| {
            let parent = match s.parent {
                0 => "root".to_string(),
                p => {
                    let p = &trace[by_id[&p]];
                    format!("{}@{}..{}", p.name, p.start_ns, p.end_ns)
                }
            };
            format!(
                "{}@{}..{} pid={} tid={} {}={} [{}] <- {parent}",
                s.name, s.start_ns, s.end_ns, s.pid, s.tid, s.arg_key, s.arg_val, s.label
            )
        })
        .collect();
    keyed.sort_unstable();
    keyed
}

/// The run the retired cross-mode determinism suite compared between its
/// steppers — mixed paths, 4 shards at depth 2, micro-batched, traced,
/// 1 % transient read errors under the default recovery policy — pinned
/// to FNV-1a goldens recorded from the sequential stepper of the last
/// commit that still had a second one. Four digests: the completion
/// stream ([`completions_digest`]), every serving statistic
/// ([`stats_digest`], recorded on the last commit that still had a
/// metrics registry), the end-of-run telemetry ([`telemetry_digest`]) and
/// the span multiset ([`span_keys`]). Span ids are allocation order, not
/// behaviour; everything else about the run is held here.
///
/// The span goldens were re-recorded twice: when every `flash:xfer`
/// gained its channel as a `ch` member argument (service windows of the
/// one server type), and when every `op:compute` window gained its worker
/// pool's width as a `workers` argument; with that argument stripped the
/// spans hash to the constants before it. They were re-recorded a third
/// time when each baseline accumulate charge gained a `base:accum`
/// window; with those windows stripped, the spans (here and in the
/// recovery run) hash to the constants before it. Every span but the
/// device service windows is pinned apart.
#[test]
fn pinned_mixed_path_run_matches_the_recorded_goldens() {
    const GOLDEN_ROWS: u64 = 600;
    let cfg = ServingConfig::small_wide(4, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let t = rt.add_table(EmbeddingTable::procedural(
        TableSpec::new(GOLDEN_ROWS, 12, Quantization::F32),
        9,
    ));
    let mut fc = FaultConfig::quiet(0x5EED);
    fc.transient_read_error_rate = 0.01;
    rt.inject_faults(&fc);
    rt.set_fault_policy(FaultPolicy::default());
    let mut rng = Xoshiro256::seed_from(0xD15C);
    let ps = paths();
    for i in 0..36u64 {
        let batch = LookupBatch::new(
            (0..3)
                .map(|_| (0..6).map(|_| rng.gen_range(0..GOLDEN_ROWS)).collect())
                .collect(),
        );
        rt.submit_at(
            SimTime::from_us(i * 3),
            i,
            t,
            batch,
            ps[i as usize % ps.len()],
        );
    }

    let done = rt.run_until_idle();
    assert_eq!(done.len(), 36);
    let keyed = span_keys(&rt.take_trace());
    let mut spans = Fnv::new();
    for k in &keyed {
        spans.str(k);
    }
    let (mut others, service) = (Fnv::new(), ["fw:exec@", "fw:engine@", "flash:xfer@"]);
    let n_others = keyed
        .iter()
        .filter(|k| !service.iter().any(|p| k.starts_with(p)))
        .inspect(|k| others.str(k))
        .count();

    assert_eq!(
        (
            completions_digest(&done),
            stats_digest(&rt),
            telemetry_digest(&rt),
            n_others,
            others.0
        ),
        (
            0xF0F8_D3F1_7274_FD3B,
            0xA835_FA22_3249_19C1,
            0xEC25_F8D9_CF2A_2457,
            1139,
            0x867C_6F0A_7958_12A6,
        ),
        "the pinned run moved: a change to the runtime altered simulated behaviour"
    );
    assert_eq!(
        (keyed.len(), spans.0),
        (1917, 0x7E09_106F_CCC6_4E07),
        "the traced service windows moved"
    );
}

/// A placement of [`ROWS`] rows pinning the hottest `hot` fraction of a
/// profile skewed towards a seeded scatter of rows.
fn placement(seed: u64, hot: f64) -> PlacementPlan {
    let mut prof = FreqProfiler::new();
    let t = prof.add_table(ROWS);
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..4_000 {
        let row = if rng.gen_bool(0.75) {
            rng.gen_range(0..ROWS / 8) * 7919 % ROWS
        } else {
            rng.gen_range(0..ROWS)
        };
        prof.observe(t, row);
    }
    PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(hot))
}

/// The recovery lifecycle pinned the way the mixed-path run above pins the
/// happy path: every way a sub-batch or a request leaves flight fires in
/// one traced run. Uncorrectable read errors exhaust a one-retry budget on
/// NDP and baseline sub-batches alike (with the NDP → baseline fallback on
/// the retry), a deadline serves requests whose sub-batches are still in
/// flight, and a placed table is refreshed mid-run so that its migration
/// chunks meet the same faults. Four FNV-1a digests as above: completions,
/// [`stats_digest`], telemetry and the span multiset (re-recorded with the
/// mixed-path run's when `op:compute` gained `workers`). Before the digests,
/// the run must have taken each exit at least once — a sub-batch merged
/// after its deadline (`late`), one dropped after its deadline (a root
/// `dropped` span) and one on an exhausted budget (a `dropped` span under
/// its request), a migration chunk retired and one dropped, and a
/// fallback — or it would stop covering one without any digest noticing.
#[test]
fn pinned_recovery_run_takes_every_exit() {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let t = rt.add_table_placed(table(), placement(0x5EED, 0.05).table(0));
    let mut fc = FaultConfig::quiet(0xFA11);
    fc.transient_read_error_rate = 0.02;
    fc.uncorrectable_rate = 0.1;
    rt.inject_faults(&fc);
    rt.set_fault_policy(FaultPolicy {
        max_retries: 1,
        fallback_after: 1,
        deadline: Some(SimDuration::from_us(5000)),
        ..FaultPolicy::default()
    });
    let mut rng = Xoshiro256::seed_from(0xE817);
    let ps = paths();
    for i in 0..48u64 {
        let batch = LookupBatch::new(
            (0..3)
                .map(|_| (0..6).map(|_| rng.gen_range(0..ROWS)).collect())
                .collect(),
        );
        rt.submit_at(
            SimTime::from_us(i * 300),
            i,
            t,
            batch,
            ps[i as usize % ps.len()],
        );
    }
    let mut done = Vec::new();
    while rt.now() < SimTime::from_us(3000) {
        match rt.step().expect("runtime invariant") {
            Some(d) => done.push(d),
            None => break,
        }
    }
    let refresh = placement(0xB0B0, 0.1);
    assert!(rt.refresh_placement(t, refresh.table(0)).is_some());
    done.extend(rt.run_until_idle());
    assert_eq!(done.len(), 48);
    for d in &done {
        rt.verify_bitmatch(d);
    }

    let trace = rt.take_trace();
    let fired = |name: &str, arg: &str, root: Option<bool>| {
        trace.iter().any(|s| {
            s.name == name && s.arg_key == arg && root.is_none_or(|r| r == (s.parent == 0))
        })
    };
    assert!(fired("sub", "late", None), "no sub-batch merged late");
    assert!(
        fired("sub", "dropped", Some(true)),
        "no drop after a deadline"
    );
    assert!(fired("sub", "dropped", Some(false)), "no exhausted budget");
    assert!(fired("migration", "lookups", None), "no migration retired");
    assert!(fired("migration", "dropped", None), "no migration dropped");
    let s = rt.stats();
    assert!(s.fallbacks.get() > 0, "no NDP sub-batch fell back");
    assert_eq!(s.plan_refreshes.get(), 1, "the refresh never activated");

    let mut spans = Fnv::new();
    for k in &span_keys(&trace) {
        spans.str(k);
    }
    assert_eq!(
        (
            completions_digest(&done),
            stats_digest(&rt),
            telemetry_digest(&rt),
            spans.0
        ),
        (
            0xADD3_B2FB_7AD9_F479,
            0x63D2_7676_6EBE_188E,
            0x010D_5820_02BB_87CE,
            0xA909_EB1B_968D_F1BE,
        ),
        "the pinned recovery run moved: a change to the runtime altered simulated behaviour"
    );
}
