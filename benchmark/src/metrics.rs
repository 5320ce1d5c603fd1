//! The catalogue of metrics: every name the benchmark prints, its unit,
//! which way is better and which clock it is on. `BENCHMARK.json` is
//! written from it (`manifest`) and a test keeps the two equal.

use crate::json::Json;
use crate::zoo::MODELS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// Which clock a number is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time or a count: repeats exactly for a seed.
    Sim,
    /// Host time or memory: noisy, compared within a bound.
    Wall,
}

use Clock::{Sim, Wall};

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "sim_lookups_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.03,
        clock: Sim,
    },
    EndToEnd {
        name: "sim_e2e_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.06,
        clock: Sim,
    },
    EndToEnd {
        name: "sim_e2e_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.12,
        clock: Sim,
    },
    EndToEnd {
        name: "sim_max_rate_rps",
        unit: "1/s",
        better: Higher,
        bound: 0.03,
        clock: Sim,
    },
    EndToEnd {
        name: "wall_lookups_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        clock: Wall,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        clock: Wall,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        clock: Wall,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: Higher,
        bound: 0.001,
        clock: Sim,
    },
];

#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const LAYERS: &[(&str, &str, Better, Clock)] = &[
    ("serving.requests", "count", Higher, Sim),
    ("serving.lookups", "count", Higher, Sim),
    ("serving.queue_p50_us", "us", Lower, Sim),
    ("serving.queue_p99_us", "us", Lower, Sim),
    ("serving.service_p50_us", "us", Lower, Sim),
    ("serving.service_p99_us", "us", Lower, Sim),
    ("serving.e2e_p999_us", "us", Lower, Sim),
    ("serving.batching_factor", "ratio", Higher, Sim),
    ("serving.shard_occupancy_mean", "count", Higher, Sim),
    ("serving.shard_occupancy_max_over_mean", "ratio", Lower, Sim),
    ("serving.tier_hit_rate", "share", Higher, Sim),
    ("serving.tier_occupancy", "count", Higher, Sim),
    ("serving.retries", "count", Lower, Sim),
    ("serving.fallbacks", "count", Lower, Sim),
    ("serving.breaker_trips", "count", Lower, Sim),
    ("serving.degraded", "count", Lower, Sim),
    ("serving.missing_lookups", "count", Lower, Sim),
    ("serving.plan_refreshes", "count", Lower, Sim),
    ("serving.rows_promoted", "count", Lower, Sim),
    ("serving.migration_lookups", "count", Lower, Sim),
    ("serving.wall.submit_ns_per_req", "ns", Lower, Wall),
    ("serving.wall.step_ns_per_req", "ns", Lower, Wall),
    ("serving.wall.admit_share", "share", Lower, Wall),
    ("serving.wall.event_dispatch_share", "share", Lower, Wall),
    ("serving.wall.device_step_share", "share", Lower, Wall),
    ("serving.wall.harvest_share", "share", Lower, Wall),
    ("serving.par2_wall_ratio", "ratio", Lower, Wall),
    ("obs.phase.admission_share", "share", Lower, Sim),
    ("obs.phase.retry_backoff_share", "share", Lower, Sim),
    ("obs.phase.shard_queue_share", "share", Lower, Sim),
    ("obs.phase.host_sw_share", "share", Lower, Sim),
    ("obs.phase.tier_gather_share", "share", Lower, Sim),
    ("obs.phase.flash_read_share", "share", Lower, Sim),
    ("obs.phase.transfer_share", "share", Lower, Sim),
    ("obs.phase.engine_exec_share", "share", Lower, Sim),
    ("obs.phase.fw_exec_share", "share", Lower, Sim),
    ("obs.phase.merge_share", "share", Lower, Sim),
    ("obs.phase.conservation", "ratio", Higher, Sim),
    ("obs.util.fw_core_max", "share", Lower, Sim),
    ("obs.util.fw_engine_max", "share", Lower, Sim),
    ("obs.util.flash_max", "share", Lower, Sim),
    ("obs.util.host_cpu_max", "share", Lower, Sim),
    ("obs.util.tier_dram", "share", Lower, Sim),
    ("obs.spans_per_request", "count", Lower, Sim),
    ("obs.trace_overhead_ratio", "ratio", Lower, Wall),
    ("obs.littles_law_residual_max", "ratio", Lower, Sim),
    ("core.ndp.sls_requests", "count", Lower, Sim),
    ("core.ndp.pages_per_lookup", "ratio", Lower, Sim),
    ("core.ndp.embed_cache_hit_rate", "share", Higher, Sim),
    ("core.ndp.config_write_us", "us", Lower, Sim),
    ("core.ndp.config_process_us", "us", Lower, Sim),
    ("core.ndp.translation_us", "us", Lower, Sim),
    ("core.ndp.merge_us", "us", Lower, Sim),
    ("core.ndp.flash_read_us", "us", Lower, Sim),
    ("core.host_cache_hit_rate", "share", Higher, Sim),
    ("core.partition_hit_rate", "share", Higher, Sim),
    ("core.proto.codec_ns_per_pair", "ns", Lower, Wall),
    ("ssd.read_commands", "count", Lower, Sim),
    ("ssd.write_commands", "count", Lower, Sim),
    ("ssd.ndp_commands", "count", Lower, Sim),
    ("ssd.blocks_read_per_lookup", "ratio", Lower, Sim),
    ("nvme.pcie_bytes_per_lookup", "B", Lower, Sim),
    ("nvme.pcie_busy_share", "share", Lower, Sim),
    ("nvme.pcie_transfers", "count", Lower, Sim),
    ("ftl.host_reads", "count", Lower, Sim),
    ("ftl.cache_hit_rate", "share", Higher, Sim),
    ("ftl.fw_busy_share", "share", Lower, Sim),
    ("ftl.engine_busy_share", "share", Lower, Sim),
    ("ftl.engine_busy_max_over_mean", "ratio", Lower, Sim),
    ("ftl.gc_relocated_pages", "count", Lower, Sim),
    ("flash.reads", "count", Lower, Sim),
    ("flash.programs", "count", Lower, Sim),
    ("flash.channel_util_mean", "share", Lower, Sim),
    ("flash.channel_util_max", "share", Lower, Sim),
    ("flash.channel_util_max_over_mean", "ratio", Lower, Sim),
    ("flash.shard_reads_max_over_mean", "ratio", Lower, Sim),
    ("flash.op_latency_p99_us", "us", Lower, Sim),
    ("flash.fault.transient", "count", Lower, Sim),
    ("flash.fault.uncorrectable", "count", Lower, Sim),
    ("embedding.sls_ref_ns_per_lookup.d32", "ns", Lower, Wall),
    ("embedding.sls_ref_ns_per_lookup.d1024", "ns", Lower, Wall),
    ("cache.lru_ns_per_access", "ns", Lower, Wall),
    ("simcore.eventq_ns_per_op", "ns", Lower, Wall),
    ("simcore.allocs_per_lookup", "count", Lower, Wall),
    ("placement.plan_build_ms", "ms", Lower, Wall),
    ("placement.hot_rows", "count", Lower, Sim),
    ("placement.expected_hit_rate", "share", Higher, Sim),
    ("trace.zipf_ns_per_id", "ns", Lower, Wall),
    ("models.ndp_speedup_geomean", "ratio", Higher, Sim),
    ("bench.gen_share", "share", Lower, Wall),
    ("bench.verify_share", "share", Lower, Wall),
    ("ladder.flash.wall_ns_per_page", "ns", Lower, Wall),
    ("ladder.ftl.self_wall_ns_per_page", "ns", Lower, Wall),
    ("ladder.ssd.self_wall_ns_per_page", "ns", Lower, Wall),
    ("ladder.core.self_wall_ns_per_page", "ns", Lower, Wall),
    ("ladder.flash.sim_us_per_page", "us", Lower, Sim),
    ("ladder.ftl.sim_us_per_page", "us", Lower, Sim),
    ("ladder.ssd.sim_us_per_page", "us", Lower, Sim),
    ("ladder.core.sim_us_per_page", "us", Lower, Sim),
    ("ladder.ssd_rw.wall_ns_per_cmd", "ns", Lower, Wall),
    ("ladder.ssd_rw.sim_iops", "1/s", Higher, Sim),
    ("ladder.ssd_rw.write_amp", "ratio", Lower, Sim),
];

/// Every per-layer metric, in the order it is printed.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = LAYERS
        .iter()
        .map(|&(name, unit, better, clock)| Layer {
            name: name.to_string(),
            unit,
            better,
            clock,
        })
        .collect();
    for m in MODELS {
        for (what, better) in [("ndp_speedup", Higher), ("embed_share", Lower)] {
            out.push(Layer {
                name: format!("models.{m}.{what}"),
                unit: if what == "ndp_speedup" {
                    "ratio"
                } else {
                    "share"
                },
                better,
                clock: Sim,
            });
        }
    }
    out
}

/// The contract's grammar for a metric or workload name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The contract's grammar for a unit.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ndp-flashwall",
        "NDP path, 4 shards, 8 SLS engines, wide rows: firmware, engines, FTL and flash do the work, the host almost none; the hot rows share a shard, so a data-mapping change must show here",
    ),
    (
        "baseline-hostpath",
        "COTS path on heat-packed tables: host I/O planning, NVMe queueing, PCIe and host accumulate dominate, no NDP command; the simulator's slowest path per lookup",
    ),
    (
        "hybrid-tier-open",
        "open loop over a DRAM tier that absorbs most lookups: admission, batching, tier gather and merge dominate, the device does little; shows the queueing closed loops hide",
    ),
    (
        "model-zoo",
        "the paper's headline: eight models as operator graphs on full-size Cosmos+ systems in DRAM, baseline-SSD and RecSSD modes, with the host LRU and SSD-side cache no serving workload enables",
    ),
    (
        "drift-faults",
        "rotating skew with adaptive placement under seeded flash faults: ECC re-senses, migration reads, plan swaps, retries and fallbacks use the same layers differently",
    ),
];

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, from the catalogue.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for good in [
            "sim_e2e_p99_us",
            "ladder.ssd_rw.write_amp",
            "ndp-flashwall",
            "9a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["1/s", "us", "MB", "%", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        assert!(!valid_unit("lookups per second"));
    }

    #[test]
    fn catalogue_obeys_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for l in &layers {
            assert!(valid_unit(l.unit), "{}", l.unit);
        }
        for m in &END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), manifest());
    }
}
