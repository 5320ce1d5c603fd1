//! Observability contract of the serving stack:
//!
//! * sim-time span traces reconstruct each request — parents resolve,
//!   children nest temporally, and the direct children of every
//!   non-degraded `request` span cover ≥ 99 % of its end-to-end latency;
//! * traces are **deterministic**: the same seed yields bit-identical
//!   Chrome-trace JSON across runs;
//! * tracing is an observer: enabling it must not perturb the simulated
//!   results, timings or stats by a single bit;
//! * one `reset_stats` resets *everything* — the serving statistics
//!   return to `ServingStats::default()`, and fault and breaker counters,
//!   FTL cache stats and every device counter underneath read zero;
//! * the per-path latency attribution reports exactly the paths served.

use recssd::{FaultConfig, LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_serving::{
    chrome_trace_json, validate_spans, EnginePoolConfig, FaultPolicy, MergePlacement,
    SchedulePolicy, ServingConfig, ServingRuntime, ServingStats, SlsPath,
};
use std::collections::HashMap;

use recssd_sim::rng::Xoshiro256;
use recssd_sim::{SimDuration, SimTime};

mod quick_scale;

const ROWS: u64 = 1024;

fn table(seed: u64) -> EmbeddingTable {
    EmbeddingTable::procedural(TableSpec::new(ROWS, 16, Quantization::F32), seed)
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

fn snaps(done: &[recssd_serving::CompletedRequest]) -> Vec<Snap> {
    done.iter()
        .map(|d| Snap {
            id: d.id.0,
            finish_ns: d.finish.as_ns(),
            queue_ns: d.queue.as_ns(),
            service_ns: d.service.as_ns(),
            outputs: d.outputs.as_slice().to_vec(),
            missing_lookups: d.missing_lookups,
        })
        .collect()
}

/// Mixed-path workload on a 2-shard runtime; returns the runtime after
/// it drained and the completion snapshots.
fn run_mixed(trace: bool, faults: bool) -> (ServingRuntime, Vec<Snap>) {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    if trace {
        rt.enable_tracing();
    }
    let t = rt.add_table(table(5));
    if faults {
        let mut fc = FaultConfig::quiet(77);
        fc.transient_read_error_rate = 0.05;
        fc.uncorrectable_rate = 0.02;
        rt.inject_faults(&fc);
        rt.set_fault_policy(FaultPolicy::default());
    }
    let work = batches(13, 30);
    let ps = paths();
    for (i, b) in work.iter().enumerate() {
        let path = ps[i % ps.len()];
        rt.submit_at(SimTime::from_us(i as u64), i as u64, t, b.clone(), path);
    }
    let done = rt.run_until_idle();
    let s = snaps(&done);
    (rt, s)
}

/// Tentpole: traced spans form a causally-linked tree whose direct
/// children reconstruct ≥ 99 % of every non-degraded request's
/// end-to-end latency, across all three serving paths at once.
#[test]
fn trace_reconstructs_requests_and_passes_invariants() {
    let (mut rt, _) = run_mixed(true, false);
    let spans = rt.take_trace();
    assert!(!spans.is_empty(), "tracing produced no spans");
    let check = validate_spans(&spans).expect("span invariants hold");
    assert_eq!(check.requests, 30, "one request span per submission");
    assert!(
        check.min_coverage >= 0.99,
        "children cover >= 99% of each request, got {}",
        check.min_coverage
    );
    // Every layer shows up: serving, host phases, firmware, flash.
    for name in [
        "request",
        "sub",
        "sub:wait",
        "op",
        "op:queue",
        "ndp:merge",
        "fw:exec",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no '{name}' span in the trace"
        );
    }
    // Device spans live on per-shard tracks, serving spans on pid 0.
    assert!(spans.iter().any(|s| s.pid == 0));
    assert!(spans.iter().any(|s| s.pid == 1) && spans.iter().any(|s| s.pid == 2));
}

/// Same seed, same workload → bit-identical Chrome-trace JSON. The
/// trace is as replayable as the simulation it observes.
#[test]
fn same_seed_traces_are_bit_identical() {
    let (mut a, _) = run_mixed(true, true);
    let (mut b, _) = run_mixed(true, true);
    let ja = chrome_trace_json(&a.take_trace());
    let jb = chrome_trace_json(&b.take_trace());
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "trace JSON diverged across identical runs");
}

/// Tracing is a pure observer: results, timings and stats of a traced
/// run are bit-identical to the untraced run (with and without faults).
#[test]
fn tracing_does_not_perturb_the_simulation() {
    for faults in [false, true] {
        let (rt_off, snaps_off) = run_mixed(false, faults);
        let (rt_on, snaps_on) = run_mixed(true, faults);
        assert_eq!(snaps_off, snaps_on, "faults={faults}: results diverged");
        assert_eq!(
            rt_off.stats(),
            rt_on.stats(),
            "faults={faults}: stats diverged"
        );
    }
}

/// Satellite: one `reset_stats` returns *every* serving statistic to its
/// default — the fault, retry and breaker counters, the per-path
/// histograms and the makespan window included — and zeroes the FTL
/// cache stats underneath.
#[test]
fn reset_stats_zeroes_every_registered_metric() {
    let (mut rt, _) = run_mixed(false, true);
    let s = rt.stats();
    assert!(s.requests.get() > 0 && s.faults.get() > 0 && s.retries.get() > 0);
    assert_eq!(rt.attribution().len(), 3, "every path served traffic");
    rt.reset_stats();
    assert_eq!(*rt.stats(), ServingStats::default());
    for cs in rt.ftl_cache_stats() {
        assert_eq!(cs.accesses(), 0, "FTL cache stats survived reset");
    }
    for f in rt.shard_fault_stats().into_iter().flatten() {
        let injected = f.transient.get() + f.uncorrectable.get() + f.stalls.get();
        assert_eq!(injected, 0, "fault stats survived reset");
    }
}

/// Every counter and busy-time getter a shard's [`recssd::System`]
/// exposes below the serving statistics, by name.
fn device_counters(sys: &recssd::System) -> Vec<(String, u64)> {
    let dev = sys.device();
    let ndp = dev.engine().stats();
    let last = ndp.last_report();
    let (ssd, pcie, ftl) = (dev.stats(), dev.pcie().stats(), dev.ftl());
    let (fs, flash) = (ftl.stats(), ftl.flash().stats());
    let mut out: Vec<(String, u64)> = [
        ("ndp.sls_requests", ndp.sls_requests.get()),
        ("ndp.pages_requested", ndp.pages_requested.get()),
        ("ndp.embed_cache", ndp.embed_cache.accesses()),
        ("ndp.last_report.total", last.total.as_ns()),
        ("ssd.read_commands", ssd.read_commands.get()),
        ("ssd.write_commands", ssd.write_commands.get()),
        ("ssd.ndp_commands", ssd.ndp_commands.get()),
        ("ssd.blocks_read", ssd.blocks_read.get()),
        ("ssd.blocks_written", ssd.blocks_written.get()),
        ("pcie.transfers", pcie.transfers.get()),
        ("pcie.bytes", pcie.bytes.get()),
        ("pcie.busy_ns", pcie.busy_ns.get()),
        ("ftl.host_reads", fs.host_reads.get()),
        ("ftl.host_writes", fs.host_writes.get()),
        ("ftl.unmapped_reads", fs.unmapped_reads.get()),
        ("ftl.write_buffer_hits", fs.write_buffer_hits.get()),
        ("ftl.gc_relocated_pages", fs.gc_relocated_pages.get()),
        ("ftl.gc_erased_blocks", fs.gc_erased_blocks.get()),
        ("ftl.cache", ftl.cache_stats().accesses()),
        ("ftl.firmware_busy", ftl.firmware_busy().as_ns()),
        ("ftl.engines_busy_total", ftl.engines_busy_total().as_ns()),
        ("flash.reads", flash.reads.get()),
        ("flash.programs", flash.programs.get()),
        ("flash.erases", flash.erases.get()),
        ("flash.op_latency", flash.op_latency.count()),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    for e in 0..ftl.engine_count() {
        out.push((format!("ftl.engine_busy[{e}]"), ftl.engine_busy(e).as_ns()));
    }
    for (c, busy) in flash.channel_busy.iter().enumerate() {
        out.push((format!("flash.channel_busy[{c}]"), busy.as_ns()));
    }
    if let Some(f) = sys.fault_stats() {
        out.push(("fault.transient".into(), f.transient.get()));
        out.push(("fault.uncorrectable".into(), f.uncorrectable.get()));
        out.push(("fault.stalls".into(), f.stalls.get()));
    }
    out
}

/// The reset cascades all the way down: after warm-up traffic over all
/// three paths on an engine-pool device, one `reset_stats` leaves no
/// counter or busy time running in any shard — the NDP engine's request
/// breakdowns, the firmware core's and every SLS engine's busy time and
/// the PCIe link's counters included, none of which the cascade reached
/// before.
#[test]
fn reset_stats_zeroes_every_device_counter_and_busy_getter() {
    let mut cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    cfg.system.ssd.ftl.engines = Some(EnginePoolConfig {
        engines: 4,
        rate_pct: 100,
        merge: MergePlacement::FwCore,
    });
    let mut rt = ServingRuntime::new(&cfg);
    let t = rt.add_table(table(5));
    let mut fc = FaultConfig::quiet(77);
    fc.transient_read_error_rate = 0.05;
    rt.inject_faults(&fc);
    rt.set_fault_policy(FaultPolicy::default());
    for (i, b) in batches(13, 30).into_iter().enumerate() {
        rt.submit_at(SimTime::from_us(i as u64), i as u64, t, b, paths()[i % 3]);
    }
    rt.run_until_idle();
    for shard in 0..rt.shards() {
        let warm = device_counters(rt.shard_system_mut(shard));
        for name in [
            "ndp.sls_requests",
            "ndp.last_report.total",
            "pcie.transfers",
            "pcie.busy_ns",
            "ftl.firmware_busy",
            "ftl.engines_busy_total",
            "flash.reads",
        ] {
            let (_, v) = warm.iter().find(|(n, _)| n == name).expect("listed");
            assert!(*v > 0, "shard {shard}: warm-up left '{name}' at zero");
        }
    }
    rt.reset_stats();
    for shard in 0..rt.shards() {
        for (name, v) in device_counters(rt.shard_system_mut(shard)) {
            assert_eq!(v, 0, "shard {shard}: '{name}' survived reset");
        }
    }
}

/// Per-path latency attribution reports exactly the paths that served
/// traffic, with internally consistent quantiles.
#[test]
fn attribution_reports_each_served_path() {
    let (rt, _) = run_mixed(false, false);
    let attr = rt.attribution();
    assert_eq!(attr.len(), 3, "all three paths served requests");
    let mut seen: Vec<&str> = attr.iter().map(|a| a.path).collect();
    seen.sort_unstable();
    assert_eq!(seen, ["baseline", "dram", "ndp"]);
    let total: u64 = attr.iter().map(|a| a.requests).sum();
    assert_eq!(total, rt.stats().requests.get());
    for a in &attr {
        assert_eq!(a.e2e.count, a.requests);
        assert!(a.e2e.p99 >= a.e2e.p50);
        assert!(
            a.service.max > 0,
            "{}: service time must be nonzero",
            a.path
        );
    }
}

/// Mixed-path run with the analysis APIs exercised both mid-stream and
/// after the drain; returns everything a bit-exact comparison needs.
fn run_mixed_analyzed() -> (Vec<Snap>, Vec<String>, String) {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    let t = rt.add_table(table(5));
    let work = batches(13, 30);
    let ps = paths();
    for (i, b) in work.iter().enumerate() {
        rt.submit_at(
            SimTime::from_us(i as u64),
            i as u64,
            t,
            b.clone(),
            ps[i % ps.len()],
        );
        if i == 15 {
            // Mid-stream analysis must be a pure observer.
            let _ = rt.critical_path_report();
            let _ = rt.bottleneck_report();
            let _ = rt.utilization_timelines(SimDuration::from_us(10));
        }
    }
    let done = rt.run_until_idle();
    let s = snaps(&done);
    let reports = vec![
        rt.critical_path_report().render(),
        rt.bottleneck_report().render(),
        rt.utilization_timelines(SimDuration::from_us(10))
            .iter()
            .map(|tl| tl.snapshot_jsonl())
            .collect::<Vec<_>>()
            .join(""),
    ];
    let trace_json = chrome_trace_json(&rt.take_trace());
    (s, reports, trace_json)
}

/// Tentpole: analysis is a pure observer. Running the critical-path /
/// bottleneck / timeline extractors mid-run and post-run leaves the
/// simulation, the stats and the exported trace bit-identical to a run
/// that never analyzed anything.
#[test]
fn analysis_is_a_pure_observer() {
    let (mut rt_plain, snaps_plain) = run_mixed(true, false);
    let (snaps_analyzed, _, trace_analyzed) = run_mixed_analyzed();
    assert_eq!(snaps_plain, snaps_analyzed, "analysis perturbed results");
    let trace_plain = chrome_trace_json(&rt_plain.take_trace());
    assert_eq!(
        trace_plain, trace_analyzed,
        "analysis perturbed (or drained) the trace"
    );
}

/// Tentpole: reports replay — two runs of the same workload feed the
/// analysis the same canonical trace, so every rendered report and JSONL
/// series matches byte for byte (the extractors' hash maps must never
/// leak their iteration order into the output).
#[test]
fn analysis_reports_replay_identically() {
    let (snaps_a, reports_a, trace_a) = run_mixed_analyzed();
    let (snaps_b, reports_b, trace_b) = run_mixed_analyzed();
    assert_eq!(snaps_a, snaps_b, "results diverged between replays");
    assert_eq!(trace_a, trace_b, "traces diverged between replays");
    assert_eq!(
        reports_a, reports_b,
        "analysis reports diverged between replays"
    );
}

/// Tentpole: the phase decomposition explains ≥ 95 % of e2e latency on
/// all three serving paths (the CI conservation gate), and the
/// decomposition's resources show up in the bottleneck ranking and the
/// utilization timelines.
#[test]
fn critical_path_conserves_e2e_on_all_paths() {
    let (rt, _) = run_mixed(true, false);
    let report = rt.critical_path_report();
    assert_eq!(report.requests, 30);
    assert_eq!(report.degraded, 0);
    let mut seen: Vec<&str> = report.paths.iter().map(|p| p.path.as_str()).collect();
    seen.sort_unstable();
    assert_eq!(seen, ["baseline", "dram", "ndp"]);
    for p in &report.paths {
        assert!(
            p.conservation() >= 0.95,
            "path {}: phases explain only {:.1}% of e2e",
            p.path,
            p.conservation() * 100.0
        );
        assert!(p.e2e.count == p.requests && p.e2e.max_ns > 0);
    }
    assert!(report.min_conservation >= 0.95);

    let bn = rt.bottleneck_report();
    assert!(bn.top().is_some(), "no resources ranked");
    assert!(bn.ranked.iter().any(|r| r.resource.starts_with("fw:core")));
    assert!(!bn.headroom.is_empty());
    for h in &bn.headroom {
        assert!(h.sustainable_rps > 0.0 && h.observed_rps > 0.0);
    }

    let tls = rt.utilization_timelines(SimDuration::from_us(10));
    assert!(tls.iter().any(|t| t.resource.starts_with("fw:core")));
    assert!(tls.iter().any(|t| t.resource.starts_with("queue[shard=")));
    for t in &tls {
        assert!(
            t.littles_law_residual() < 1e-9,
            "{}: L != lambda*W",
            t.resource
        );
        assert!(t.utilization() <= 1.0 + 1e-12);
    }
}

/// Acceptance bar: the bottleneck analyzer finds each path's wall
/// unprompted, and its top row is the device's own busiest server — the
/// member with the largest busy counter, at that counter. The
/// heat-packed COTS baseline at depth 4 is bound by the serial firmware
/// core (at least half utilised); the NDP path with eight per-channel
/// engines has shed that wall and is bound by a flash channel. Both
/// decompositions still conserve ≥ 95 % of e2e time.
/// (`crates/bench/tests/analyze_cli.rs` replays the same two traces
/// through the offline `recssd-analyze`.)
#[test]
fn analyzer_pins_the_baseline_on_firmware_and_pooled_ndp_on_flash() {
    for (mut rt, wall) in [
        (quick_scale::baseline_run(true, 4, true), "fw:core["),
        (quick_scale::wide_ndp_run(1, 8, 4, true), "flash["),
    ] {
        let (busiest, busy_ns) = quick_scale::busiest_member(&mut rt);
        let ranking = rt.bottleneck_report();
        let top = &ranking.ranked[0];
        assert_eq!(
            (top.resource.as_str(), top.service_ns),
            (busiest.as_str(), busy_ns)
        );
        assert!(top.resource.starts_with(wall), "walls on {}", top.resource);
        assert!(
            top.utilization() >= 0.5,
            "{} only {:.0}% utilised",
            top.resource,
            top.utilization() * 100.0
        );
        assert!(rt.critical_path_report().min_conservation >= 0.95);
    }
}

/// Acceptance bar: the instruments agree by construction. On three
/// traced runs taken to idle — the quick-scale 8-engine NDP run, the
/// heat-packed baseline and the mixed-path run — per shard, Σ `fw:exec`
/// == `firmware_busy()`, Σ `fw:engine` of member `e` == `engine_busy(e)`
/// and Σ `flash:xfer` of member `c` == `channel_busy[c]`; the bottleneck
/// row of each member carries that same integer; and no path is
/// observed above the rate it can sustain.
#[test]
fn instruments_agree_by_construction() {
    let runs = [
        quick_scale::wide_ndp_run(1, 8, 4, true),
        quick_scale::baseline_run(true, 4, true),
        run_mixed(true, false).0,
    ];
    for mut rt in runs {
        rt.run_until_idle();
        let mut traced: HashMap<String, u64> = HashMap::new();
        for s in rt.snapshot_trace() {
            let (shard, ch) = (s.pid.saturating_sub(1), s.arg_val);
            let name = match s.name {
                "fw:exec" => format!("fw:core[shard={shard}]"),
                "fw:engine" => format!("fw:engine[shard={shard},ch={ch}]"),
                "flash:xfer" => format!("flash[shard={shard},ch={ch}]"),
                _ => continue,
            };
            *traced.entry(name).or_default() += s.end_ns - s.start_ns;
        }
        let report = rt.bottleneck_report();
        let members = quick_scale::device_members(&mut rt);
        assert!(members.iter().all(|m| m.1 > 0), "{members:?}");
        for (name, busy) in members {
            assert_eq!(traced.get(&name), Some(&busy), "{name}: spans vs counter");
            let row = report.ranked.iter().find(|r| r.resource == name);
            assert_eq!(row.map(|r| r.service_ns), Some(busy), "{name}: report");
        }
        assert!(!report.headroom.is_empty());
        for h in &report.headroom {
            assert!(h.observed_rps <= h.sustainable_rps, "{h:?}");
        }
    }
}

/// Wall-clock self-profiling is off (all-zero) by default and
/// accumulates into every phase once enabled.
#[test]
fn wall_profile_is_opt_in_and_covers_the_loop() {
    let (rt, _) = run_mixed(false, false);
    assert!(
        rt.wall_profile()
            .iter()
            .all(|p| p.nanos == 0 && p.count == 0),
        "profiling must be off by default"
    );
    let prof = self_profiled_ndp_run().wall_profile();
    for p in &prof {
        assert!(p.count > 0, "phase '{}' never sampled", p.phase);
    }
    let dev = prof.iter().find(|p| p.phase == "device_step").unwrap();
    assert!(dev.nanos > 0, "device stepping took no wall time?");
}

/// Twelve NDP requests run to idle with self-profiling on.
fn self_profiled_ndp_run() -> ServingRuntime {
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_self_profiling();
    let t = rt.add_table(table(5));
    for (i, b) in batches(13, 12).iter().enumerate() {
        rt.submit_at(
            SimTime::from_us(i as u64),
            i as u64,
            t,
            b.clone(),
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    rt.run_until_idle();
    rt
}

/// `reset_stats` between warm-up and measurement restarts the wall
/// self-profile too: every phase reads zero afterwards, so the per-phase
/// shares a benchmark derives cover the measured section only.
#[test]
fn reset_stats_restarts_the_wall_profile() {
    let mut rt = self_profiled_ndp_run();
    rt.reset_stats();
    for p in rt.wall_profile() {
        assert_eq!(
            (p.nanos, p.count),
            (0, 0),
            "phase '{}' kept its warm-up time",
            p.phase
        );
    }
}
