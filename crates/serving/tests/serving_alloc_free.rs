//! The serving runtime's allocation discipline, measured: once warm,
//! admitting, splitting, merging, dispatching and harvesting a request
//! allocates nothing per lookup, and a queued request holds one id buffer
//! rather than one per output and per shard. A counting global allocator
//! brackets measured windows after warm-up runs of the same shape; the
//! batches are generated outside the windows, so only the runtime counts.
//!
//! The counters read are the test thread's own, so the harness's other
//! threads do not pollute them.

use recssd::{LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    EnginePoolConfig, MergePlacement, SchedulePolicy, ServedTableId, ServingConfig, ServingRuntime,
    SlsPath,
};
use recssd_sim::alloc_count::{allocation_count, live_bytes, CountingAllocator};
use recssd_sim::SimDuration;
use recssd_trace::ZipfTrace;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocation events allowed per served lookup in a warm window: one
/// event in twenty lookups covers the containers that still grow to a
/// new high-water mark (event heap, request map, shard queues), and
/// nothing that happens per request.
const ALLOCS_PER_LOOKUP: f64 = 0.05;

/// Heap a request may add while it waits in a warm runtime's queues: its
/// flat batch of 4 × 10 ids is 360 bytes, and recycled sub-batch buffers
/// grow a little where a split is larger than the one they last held.
/// A batch of one vector per output takes 416 bytes on its own, and
/// sub-batches allocated per (shard, output) take more.
const BYTES_PER_QUEUED_REQUEST: u64 = 408;

const ROWS: u64 = 8192;
const OUTPUTS: usize = 4;
const PER_OUTPUT: usize = 10;

/// `n` requests over `tables`, round-robin, each `OUTPUTS` ×
/// `PER_OUTPUT` Zipf lookups (last request first, for `pop`).
fn work(tables: &[ServedTableId], n: usize, seed: u64) -> Vec<(ServedTableId, LookupBatch)> {
    let mut zipfs: Vec<ZipfTrace> = (0..tables.len())
        .map(|t| ZipfTrace::new(ROWS, 1.2, seed + t as u64))
        .collect();
    let mut out: Vec<(ServedTableId, LookupBatch)> = (0..n)
        .map(|i| {
            let z = &mut zipfs[i % tables.len()];
            let ids = (0..OUTPUTS).map(|_| z.take_ids(PER_OUTPUT)).collect();
            (tables[i % tables.len()], LookupBatch::new(ids))
        })
        .collect();
    out.reverse();
    out
}

/// Serves `work` closed-loop with 16 clients; returns the lookups served.
fn closed(
    rt: &mut ServingRuntime,
    mut work: Vec<(ServedTableId, LookupBatch)>,
    path: SlsPath,
) -> u64 {
    let mut lookups = 0;
    let start = rt.now();
    for client in 0..16 {
        if let Some((t, b)) = work.pop() {
            rt.submit_at(start, client, t, b, path);
        }
    }
    while let Some(done) = rt.step().expect("runtime invariant") {
        lookups += done.batch.total_lookups() as u64;
        if let Some((t, b)) = work.pop() {
            rt.submit_at(done.finish, done.client, t, b, path);
        }
        rt.recycle_output(done.outputs);
    }
    lookups
}

/// Serves `work` open-loop, one arrival every `gap`; returns the lookups
/// served.
fn open(
    rt: &mut ServingRuntime,
    mut work: Vec<(ServedTableId, LookupBatch)>,
    gap: SimDuration,
    path: SlsPath,
) -> u64 {
    let mut at = rt.now();
    while let Some((t, b)) = work.pop() {
        at += gap;
        rt.submit_at(at, 0, t, b, path);
    }
    drain(rt)
}

/// Steps `rt` until idle; returns the lookups served.
fn drain(rt: &mut ServingRuntime) -> u64 {
    let mut lookups = 0;
    while let Some(done) = rt.step().expect("runtime invariant") {
        lookups += done.batch.total_lookups() as u64;
        rt.recycle_output(done.outputs);
    }
    lookups
}

/// Allocation events per lookup of `serve`, which returns the lookups it
/// served.
fn allocs_per_lookup(serve: impl FnOnce() -> u64) -> f64 {
    let before = allocation_count();
    let lookups = serve();
    (allocation_count() - before) as f64 / lookups as f64
}

fn tables(
    rt: &mut ServingRuntime,
    n: usize,
    dim: usize,
    hot_fraction: Option<f64>,
) -> Vec<ServedTableId> {
    let plan = hot_fraction.map(|f| {
        let mut prof = FreqProfiler::new();
        for t in 0..n {
            let id = prof.add_table(ROWS);
            prof.profile_zipf(id, &mut ZipfTrace::new(ROWS, 1.2, 100 + t as u64), 20_000);
        }
        PlacementPlan::build(&prof, &PlacementPolicy::hot_fraction(f))
    });
    (0..n)
        .map(|t| {
            let table =
                EmbeddingTable::procedural(TableSpec::new(ROWS, dim, Quantization::F32), t as u64);
            match &plan {
                Some(plan) => rt.add_table_placed(table, plan.table(t)),
                None => rt.add_table(table),
            }
        })
        .collect()
}

/// The `hybrid-tier-open` shape: two NDP shards of depth `depth` behind a
/// DRAM tier of the hottest 5 % of four tables, micro-batching 8 outputs.
fn hybrid(depth: usize) -> (ServingRuntime, Vec<ServedTableId>) {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(depth);
    let mut rt = ServingRuntime::new(&cfg);
    let t = tables(&mut rt, 4, 32, Some(0.05));
    (rt, t)
}

#[test]
fn warm_serving_allocates_nothing_per_lookup_and_queues_one_buffer_per_request() {
    let ndp = SlsPath::Ndp(SlsOptions::default());

    // Closed loop, NDP, 4 shards with 8 SLS engines each.
    let mut cfg = ServingConfig::small_wide(4, SchedulePolicy::Fifo).with_depth(4);
    cfg.system.ssd.ftl.engines = Some(EnginePoolConfig {
        engines: 8,
        rate_pct: 100,
        merge: MergePlacement::FwCore,
    });
    let mut rt = ServingRuntime::new(&cfg);
    let t = tables(&mut rt, 2, 32, None);
    closed(&mut rt, work(&t, 300, 1), ndp);
    let batches = work(&t, 600, 2);
    let per_lookup = allocs_per_lookup(|| closed(&mut rt, batches, ndp));
    assert!(
        per_lookup <= ALLOCS_PER_LOOKUP,
        "closed-loop NDP: {per_lookup:.4} allocations per lookup"
    );

    // Open loop over the DRAM tier, arrivals every 25 µs: past capacity,
    // so a backlog builds on the device shards.
    let (mut rt, t) = hybrid(4);
    let gap = SimDuration::from_us(25);
    open(&mut rt, work(&t, 600, 3), gap, ndp);
    let batches = work(&t, 600, 4);
    let per_lookup = allocs_per_lookup(|| open(&mut rt, batches, gap, ndp));
    assert!(
        per_lookup <= ALLOCS_PER_LOOKUP,
        "open-loop tier: {per_lookup:.4} allocations per lookup"
    );

    // A burst at one instant onto depth-1 shards: after a warm-up burst
    // of the same size, what each queued request adds to the heap.
    const BURST: usize = 500;
    let (mut rt, t) = hybrid(1);
    let burst = |rt: &mut ServingRuntime, seed: u64| {
        let at = rt.now() + SimDuration::from_us(1);
        for (i, (t, b)) in work(&t, BURST, seed).into_iter().enumerate() {
            rt.submit_at(at, i as u64, t, b, ndp);
        }
        at
    };
    burst(&mut rt, 5);
    drain(&mut rt);
    let before = live_bytes();
    let at = burst(&mut rt, 6);
    // The first completion comes after every arrival of the burst
    // instant was admitted: the rest are queued.
    let first = rt.step().expect("runtime invariant").expect("a completion");
    assert!(
        first.finish > at,
        "the burst is admitted before anything finishes"
    );
    let grown = live_bytes() - before;
    let per_request = grown / BURST as u64;
    assert!(
        per_request <= BYTES_PER_QUEUED_REQUEST,
        "a queued request holds {per_request} heap bytes ({grown} for {BURST})"
    );
}
