//! Behavioural contracts of the serving runtime: queueing discipline,
//! micro-batch coalescing, telemetry accounting, shard scaling and the
//! load generator's two pacing modes.

use recssd::{LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    LoadGen, LoadMode, SchedulePolicy, ServedTableId, ServingConfig, ServingRuntime, SlsPath,
    TrafficSpec,
};
use recssd_sim::{SimDuration, SimTime};
use recssd_trace::{ArrivalProcess, ZipfTrace};

fn runtime(
    shards: usize,
    policy: SchedulePolicy,
) -> (ServingRuntime, recssd_serving::ServedTableId) {
    let cfg = ServingConfig::small_wide(shards, policy);
    let mut rt = ServingRuntime::new(&cfg);
    let table = rt.add_table(EmbeddingTable::procedural(
        TableSpec::new(2048, 16, Quantization::F32),
        3,
    ));
    (rt, table)
}

fn spec() -> TrafficSpec {
    TrafficSpec {
        outputs: 4,
        lookups_per_output: 8,
        zipf_exponent: 1.2,
    }
}

#[test]
fn closed_loop_serves_every_request_and_records_latency() {
    let (mut rt, table) = runtime(2, SchedulePolicy::Fifo);
    let mut gen = LoadGen::new(
        &rt,
        vec![table],
        spec(),
        LoadMode::Closed {
            clients: 4,
            think: SimDuration::ZERO,
        },
        11,
    )
    .with_verify_every(1);
    let verified = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 24);
    let s = rt.stats();
    assert_eq!(s.requests.get(), 24);
    assert_eq!(verified, 24);
    assert_eq!(s.lookups.get(), 24 * spec().lookups_per_request() as u64);
    assert!(s.makespan() > SimDuration::ZERO);
    assert!(s.lookups_per_sim_sec() > 0.0);
    // Quantiles are ordered and the mean lies within [p50-ish, max].
    let e2e = s.e2e.quantiles();
    assert!(e2e.p50 <= e2e.p95);
    assert!(e2e.p95 <= e2e.p99);
    assert!(e2e.p99 <= e2e.p999);
    assert!(e2e.p999 <= e2e.max);
    // With 4 clients against 2 shards, someone queued.
    assert!(
        s.queue.quantiles().max > 0,
        "no queueing under 2x oversubscription"
    );
}

#[test]
fn open_loop_overload_shows_tail_growth() {
    // A slow path (baseline SSD) hammered at a rate far above capacity:
    // later requests must queue, so p99 >> p50.
    let (mut rt, table) = runtime(1, SchedulePolicy::Fifo);
    let mut gen = LoadGen::new(
        &rt,
        vec![table],
        spec(),
        LoadMode::Open(ArrivalProcess::poisson(5_000.0, 7)),
        13,
    );
    gen.run(&mut rt, SlsPath::Baseline(SlsOptions::default()), 32);
    assert_eq!(rt.stats().requests.get(), 32);
    let e2e = rt.stats().e2e.quantiles();
    assert!(
        e2e.p99 > e2e.p50 * 2,
        "overload should stretch the tail: p50 {} p99 {}",
        e2e.p50,
        e2e.p99
    );
}

#[test]
fn micro_batching_coalesces_and_amortises() {
    // Eight requests arrive together; FIFO serves them as eight operators,
    // micro-batching folds mergeable sub-batches into fewer operators and
    // finishes sooner on the command-cost-dominated NDP path.
    let run = |policy| {
        let (mut rt, table) = runtime(2, policy);
        let mut gen = LoadGen::new(
            &rt,
            vec![table],
            spec(),
            LoadMode::Closed {
                clients: 8,
                think: SimDuration::ZERO,
            },
            21,
        )
        .with_verify_every(1);
        let verified = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 32);
        assert_eq!(verified, 32, "merged outputs must stay bit-exact");
        rt.stats().clone()
    };
    let fifo = run(SchedulePolicy::Fifo);
    let micro = run(SchedulePolicy::micro_batch(16));
    assert!(
        (fifo.batching_factor() - 1.0).abs() < 1e-9,
        "FIFO never merges"
    );
    assert!(
        micro.batching_factor() > 1.2,
        "micro-batching never coalesced (factor {})",
        micro.batching_factor()
    );
    assert!(
        micro.lookups_per_sim_sec() > fifo.lookups_per_sim_sec(),
        "batching should raise throughput: fifo {} vs micro {}",
        fifo.lookups_per_sim_sec(),
        micro.lookups_per_sim_sec()
    );
}

#[test]
fn ndp_throughput_scales_with_shard_count() {
    // The acceptance bar of the serving subsystem: under a fixed closed
    // -loop population, aggregate NDP throughput at 4 shards is at least
    // 2x the 1-shard figure.
    let run = |shards| {
        let (mut rt, table) = runtime(shards, SchedulePolicy::Fifo);
        let mut gen = LoadGen::new(
            &rt,
            vec![table],
            spec(),
            LoadMode::Closed {
                clients: 12,
                think: SimDuration::ZERO,
            },
            5,
        );
        gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 48);
        rt.stats().lookups_per_sim_sec()
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four >= one * 2.0,
        "1→4 shards scaled only {:.2}x ({one:.0} → {four:.0} lookups/s)",
        four / one
    );
}

#[test]
fn idle_micro_batching_shard_dispatches_immediately() {
    // A request hitting a shard with free operator capacity must begin
    // service at once — holding a fast path idle hoping for co-batching
    // material was the 4-shard DRAM anomaly (p95 209 µs vs 41 µs FIFO).
    let (mut rt, table) = runtime(1, SchedulePolicy::micro_batch(64));
    let batch = recssd::LookupBatch::new(vec![vec![1, 2, 3]]);
    rt.submit_at(SimTime::ZERO, 0, table, batch, SlsPath::Dram);
    let done = rt.run_until_idle();
    assert_eq!(done.len(), 1);
    assert_eq!(
        done[0].queue,
        SimDuration::ZERO,
        "idle shard deferred an immediately serveable batch by {}",
        done[0].queue
    );
}

#[test]
fn mixed_tables_and_paths_interleave_without_cross_merging() {
    // Two tables' requests never merge into one operator, but both are
    // served and verified.
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(32));
    let mut rt = ServingRuntime::new(&cfg);
    let a = rt.add_table(EmbeddingTable::procedural(
        TableSpec::new(512, 8, Quantization::F32),
        1,
    ));
    let b = rt.add_table(EmbeddingTable::procedural(
        TableSpec::new(1024, 8, Quantization::F32),
        2,
    ));
    let mut gen = LoadGen::new(
        &rt,
        vec![a, b],
        spec(),
        LoadMode::Closed {
            clients: 6,
            think: SimDuration::ZERO,
        },
        31,
    )
    .with_verify_every(1);
    let verified = gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 30);
    assert_eq!(rt.stats().requests.get(), 30);
    assert_eq!(verified, 30);
}

#[test]
fn closed_loop_issues_exactly_the_requested_count() {
    // A client population larger than the request budget must not inflate
    // the run: exactly `total_requests` are issued and reported.
    let (mut rt, table) = runtime(2, SchedulePolicy::Fifo);
    let mut gen = LoadGen::new(
        &rt,
        vec![table],
        spec(),
        LoadMode::Closed {
            clients: 32,
            think: SimDuration::ZERO,
        },
        3,
    );
    gen.run(&mut rt, SlsPath::Dram, 10);
    assert_eq!(rt.stats().requests.get(), 10);
}

#[test]
fn saturated_shard_coalesces_queued_mergeable_arrivals() {
    // Batches form from genuine queueing, not idle waiting: the first
    // arrival dispatches immediately; three more arriving while the
    // depth-1 shard is occupied coalesce into one merged operator when
    // the slot frees.
    let (mut rt, table) = runtime(1, SchedulePolicy::micro_batch(16));
    let batch = || recssd::LookupBatch::new(vec![vec![1, 2], vec![3]]);
    let path = SlsPath::Ndp(SlsOptions::default());
    rt.submit_at(SimTime::ZERO, 0, table, batch(), path);
    for c in 1..4u64 {
        rt.submit_at(SimTime::from_us(c), c, table, batch(), path);
    }
    let done = rt.run_until_idle();
    assert_eq!(done.len(), 4);
    assert_eq!(
        rt.stats().ops_dispatched.get(),
        2,
        "expected one immediate dispatch plus one merged operator"
    );
    assert_eq!(rt.stats().subs_dispatched.get(), 4);
    let first = done.iter().find(|d| d.client == 0).expect("served");
    assert_eq!(
        first.queue,
        SimDuration::ZERO,
        "head dispatch must not wait"
    );
}

/// Completions come out in canonical `(finish, id)` order even when
/// partials on different shards finish at the same instant: an open-loop,
/// micro-batched run over a DRAM tier in the `hybrid-tier-open` benchmark
/// workload's shape (two shards of depth 4, four 8 192-row tables with a
/// 5 % hot tier, 4 × 10 Zipf-1.2 lookups a request, Poisson arrivals at
/// 5 000 requests/s). A finished request must wait until every pending
/// instant lies strictly after its finish: a same-instant event on
/// another shard can still harvest a smaller id with that finish.
#[test]
fn open_loop_tier_completions_come_out_in_finish_id_order() {
    const TABLES: usize = 4;
    const ROWS: u64 = 8192;
    const REQUESTS: usize = 6_000;
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(4);
    let mut rt = ServingRuntime::new(&cfg);
    let mut streams: Vec<ZipfTrace> = (0..TABLES)
        .map(|t| ZipfTrace::new(ROWS, 1.2, 0x5EED + t as u64 * 7919))
        .collect();
    // Zipf ranks scatter to the same rows whatever the seed, so a profile
    // of independent draws finds the streams' hot rows.
    let mut prof = FreqProfiler::new();
    for t in 0..TABLES {
        let id = prof.add_table(ROWS);
        prof.profile_zipf(id, &mut ZipfTrace::new(ROWS, 1.2, t as u64), 50_000);
    }
    let plan = PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(0.05));
    let tables: Vec<ServedTableId> = (0..TABLES)
        .map(|t| {
            let spec = TableSpec::new(ROWS, 32, Quantization::F32);
            rt.add_table_placed(EmbeddingTable::procedural(spec, t as u64), plan.table(t))
        })
        .collect();
    let ndp = SlsPath::Ndp(SlsOptions::default());
    let mut arrivals = ArrivalProcess::poisson(5_000.0, 42);
    let mut at = SimTime::ZERO;
    for i in 0..REQUESTS {
        at += arrivals.next_gap();
        let zipf = &mut streams[i % TABLES];
        let batch = LookupBatch::new(
            (0..4)
                .map(|_| (0..10).map(|_| zipf.next_id()).collect())
                .collect(),
        );
        rt.submit_at(at, 0, tables[i % TABLES], batch, ndp);
    }
    let mut order = Vec::with_capacity(REQUESTS);
    while let Some(done) = rt.step().expect("no invariant violation") {
        if done.id.0 % 64 == 0 {
            rt.verify_bitmatch(&done);
        }
        order.push((done.finish, done.id));
    }
    assert_eq!(order.len(), REQUESTS);
    assert!(rt.stats().tier.hits() > 0, "the tier served lookups");
    if let Some(w) = order.windows(2).find(|w| w[0] > w[1]) {
        panic!("completion {:?} handed out before {:?}", w[0], w[1]);
    }
}
