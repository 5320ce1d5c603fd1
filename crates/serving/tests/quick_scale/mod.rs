//! The quick-scale workload the serving acceptance bars are measured on:
//! two 2 048-row tables, requests of 4 outputs × 8 Zipf lookups, a
//! saturating closed loop seeded 42, 96 requests per run, one completion
//! in eight bit-checked against `sls_reference`. The themed test files
//! assert the bars; this module only builds and drives the runtimes, so
//! that a bar measured in two places (the live bottleneck verdict here,
//! the offline one in `crates/bench/tests/analyze_cli.rs`) is measured on
//! the same run.

#![allow(dead_code)] // every test binary uses its own subset

use recssd::SlsOptions;
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    EnginePoolConfig, LoadGen, LoadMode, MergePlacement, SchedulePolicy, ServedTableId,
    ServingConfig, ServingRuntime, SlsPath, TrafficSpec,
};
use recssd_sim::SimDuration;
use recssd_trace::ZipfTrace;

pub const TABLES: usize = 2;
pub const ROWS: u64 = 2048;
pub const DIM: usize = 32;
pub const CLIENTS: usize = 12;
pub const REQUESTS: usize = 96;
pub const PROFILE_SAMPLES: usize = 50_000;

pub fn ndp() -> SlsPath {
    SlsPath::Ndp(SlsOptions::default())
}

pub fn spec(skew: f64) -> TrafficSpec {
    TrafficSpec {
        outputs: 4,
        lookups_per_output: 8,
        zipf_exponent: skew,
    }
}

/// Registers the workload's tables as `dim`-wide vectors, heat-packed
/// (and tiered, if the plan has a hot budget) under `plan` when given.
pub fn add_tables(
    rt: &mut ServingRuntime,
    dim: usize,
    plan: Option<&PlacementPlan>,
) -> Vec<ServedTableId> {
    (0..TABLES)
        .map(|t| {
            let table =
                EmbeddingTable::procedural(TableSpec::new(ROWS, dim, Quantization::F32), t as u64);
            match plan {
                Some(plan) => rt.add_table_placed(table, plan.table(t)),
                None => rt.add_table(table),
            }
        })
        .collect()
}

/// One decorrelated Zipf profile per table at `skew` — static placement
/// relies on the distribution, not the exact replay.
pub fn profile(skew: f64) -> FreqProfiler {
    let mut prof = FreqProfiler::new();
    for t in 0..TABLES {
        let id = prof.add_table(ROWS);
        let mut zipf = ZipfTrace::new(ROWS, skew, 0x9E37 + t as u64 * 7919);
        prof.profile_zipf(id, &mut zipf, PROFILE_SAMPLES);
    }
    prof
}

pub fn load_gen(
    rt: &ServingRuntime,
    tables: Vec<ServedTableId>,
    skew: f64,
    clients: usize,
) -> LoadGen {
    let mode = LoadMode::Closed {
        clients,
        think: SimDuration::ZERO,
    };
    LoadGen::new(rt, tables, spec(skew), mode, 42).with_verify_every(8)
}

/// [`REQUESTS`] requests at Zipf `skew` through `path`; the run's
/// statistics are left in `rt.stats()`.
pub fn serve(
    rt: &mut ServingRuntime,
    tables: Vec<ServedTableId>,
    skew: f64,
    clients: usize,
    path: SlsPath,
) {
    let verified = load_gen(rt, tables, skew, clients).run(rt, path, REQUESTS);
    assert!(verified > 0, "bit-match went unchecked");
}

/// The COTS baseline path at one shard: heat-packed tables (zero hot
/// budget, packing only) make the hot storage prefix contiguous, and a
/// host that reads through gaps of up to 8 pages turns it into few, long
/// commands — the workload whose wall is the serial firmware core.
pub fn baseline_run(packed: bool, depth: usize, traced: bool) -> ServingRuntime {
    let mut cfg = ServingConfig::small_wide(1, SchedulePolicy::Fifo).with_depth(depth);
    cfg.system.host.read_bridge_limit = 8;
    let mut rt = ServingRuntime::new(&cfg);
    if traced {
        rt.enable_tracing();
    }
    let plan =
        packed.then(|| PlacementPlan::build(&profile(1.2), &PlacementPolicy::hot_fraction(0.0)));
    let tables = add_tables(&mut rt, DIM, plan.as_ref());
    let path = SlsPath::Baseline(SlsOptions::default());
    serve(&mut rt, tables, 1.2, CLIENTS, path);
    rt
}

/// The NDP path over 1 024-wide vectors — the Fig. 11a regime where
/// per-page Translation, not the flash array, is the firmware's dominant
/// cost — with `engines` per-channel SLS engines and 32 clients.
pub fn wide_ndp_run(shards: usize, engines: usize, depth: usize, traced: bool) -> ServingRuntime {
    let mut cfg = ServingConfig::small_wide(shards, SchedulePolicy::Fifo).with_depth(depth);
    cfg.system.ssd.ftl.engines = Some(EnginePoolConfig {
        engines,
        rate_pct: 100,
        merge: MergePlacement::FwCore,
    });
    let mut rt = ServingRuntime::new(&cfg);
    if traced {
        rt.enable_tracing();
    }
    let tables = add_tables(&mut rt, 1024, None);
    serve(&mut rt, tables, 1.2, 32, ndp());
    rt
}

/// Every device server's busy counter, in ns, under the name the
/// bottleneck ranking gives it: each shard's firmware core, SLS engines
/// and flash channels.
pub fn device_members(rt: &mut ServingRuntime) -> Vec<(String, u64)> {
    let mut members = Vec::new();
    for shard in 0..rt.shards() {
        let ftl = rt.shard_system_mut(shard).device().ftl();
        members.push((format!("fw:core[shard={shard}]"), ftl.firmware_busy()));
        for e in 0..ftl.engine_count() {
            members.push((
                format!("fw:engine[shard={shard},ch={e}]"),
                ftl.engine_busy(e),
            ));
        }
        for (c, busy) in ftl.flash().stats().channel_busy.into_iter().enumerate() {
            members.push((format!("flash[shard={shard},ch={c}]"), busy));
        }
    }
    members.into_iter().map(|(n, b)| (n, b.as_ns())).collect()
}

/// The busiest of [`device_members`]; ties go to the smaller name, as in
/// the ranking.
pub fn busiest_member(rt: &mut ServingRuntime) -> (String, u64) {
    device_members(rt)
        .into_iter()
        .min_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)))
        .expect("a device server")
}
