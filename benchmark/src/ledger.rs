//! The device half of the per-layer ledger: counters and busy times of
//! `core`, `ssd`, `nvme`, `ftl` and `flash`, read through each
//! `System`'s public getters and folded over the systems of a workload
//! (the shards of a serving runtime, or the RecSSD system of each model).

use recssd::{SlsRequestReport, System};
use recssd_obs::SpanRec;
use recssd_sim::stats::HitStats;
use recssd_sim::SimDuration;

pub type Metrics = Vec<(String, f64)>;

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

pub fn max(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, f64::max)
}

#[derive(Debug, Default)]
pub struct DeviceLedger {
    systems: usize,
    ndp: SlsRequestReport,
    ndp_reqs: u64,
    ndp_pages: u64,
    embed: HitStats,
    read_cmds: u64,
    write_cmds: u64,
    ndp_cmds: u64,
    blocks_read: u64,
    pcie_bytes: u64,
    pcie_busy_ns: u64,
    pcie_xfers: u64,
    host_reads: u64,
    gc_pages: u64,
    ftl_cache: HitStats,
    fw_busy_ns: Vec<f64>,
    engine_busy_ns: Vec<f64>,
    flash_reads: Vec<f64>,
    flash_programs: u64,
    channel_busy_ns: Vec<f64>,
    op_p99_us: f64,
    transient: u64,
    uncorrectable: u64,
}

impl DeviceLedger {
    pub fn add(&mut self, sys: &System) {
        self.systems += 1;
        let dev = sys.device();
        let st = dev.engine().stats();
        let n = st.sls_requests.get();
        if n > 0 {
            // `mean_report` divides by `n`; undo that to pool systems.
            let r = st.mean_report();
            self.ndp.config_write += r.config_write * n;
            self.ndp.config_process += r.config_process * n;
            self.ndp.translation += r.translation * n;
            self.ndp.merge += r.merge * n;
            self.ndp.flash_read += r.flash_read * n;
            self.ndp_reqs += n;
        }
        self.ndp_pages += st.pages_requested.get();
        self.embed.merge(st.embed_cache);
        let ss = dev.stats();
        self.read_cmds += ss.read_commands.get();
        self.write_cmds += ss.write_commands.get();
        self.ndp_cmds += ss.ndp_commands.get();
        self.blocks_read += ss.blocks_read.get();
        let p = dev.pcie().stats();
        self.pcie_bytes += p.bytes.get();
        self.pcie_busy_ns += p.busy_ns.get();
        self.pcie_xfers += p.transfers.get();
        let ftl = dev.ftl();
        self.host_reads += ftl.stats().host_reads.get();
        self.gc_pages += ftl.stats().gc_relocated_pages.get();
        self.ftl_cache.merge(ftl.cache_stats());
        self.fw_busy_ns.push(ftl.firmware_busy().as_ns() as f64);
        for e in 0..ftl.engine_count() {
            self.engine_busy_ns.push(ftl.engine_busy(e).as_ns() as f64);
        }
        let fs = ftl.flash().stats();
        self.flash_reads.push(fs.reads.get() as f64);
        self.flash_programs += fs.programs.get();
        self.channel_busy_ns
            .extend(fs.channel_busy.iter().map(|d| d.as_ns() as f64));
        let p99 = fs.op_latency.percentile(99.0).unwrap_or(0) as f64 / 1e3;
        self.op_p99_us = self.op_p99_us.max(p99);
        if let Some(f) = sys.fault_stats() {
            self.transient += f.transient.get();
            self.uncorrectable += f.uncorrectable.get();
        }
    }

    pub fn ndp_commands(&self) -> u64 {
        self.ndp_cmds
    }

    /// `sim_ns` is the simulated time every busy share is taken over,
    /// `lookups` the embedding lookups the systems served in it.
    pub fn finish(self, sim_ns: f64, lookups: f64) -> Metrics {
        let mut out = Metrics::new();
        let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
        let per_req = |d: SimDuration| ratio(d.as_ns() as f64 / 1e3, self.ndp_reqs as f64);
        let busy_share = |xs: &[f64]| ratio(mean(xs), sim_ns);
        let chan_util: Vec<f64> = self
            .channel_busy_ns
            .iter()
            .map(|b| ratio(*b, sim_ns))
            .collect();
        put("core.ndp.sls_requests", self.ndp_reqs as f64);
        put(
            "core.ndp.pages_per_lookup",
            ratio(self.ndp_pages as f64, lookups),
        );
        put("core.ndp.embed_cache_hit_rate", self.embed.hit_rate());
        put("core.ndp.config_write_us", per_req(self.ndp.config_write));
        put(
            "core.ndp.config_process_us",
            per_req(self.ndp.config_process),
        );
        put("core.ndp.translation_us", per_req(self.ndp.translation));
        put("core.ndp.merge_us", per_req(self.ndp.merge));
        put("core.ndp.flash_read_us", per_req(self.ndp.flash_read));
        put("ssd.read_commands", self.read_cmds as f64);
        put("ssd.write_commands", self.write_cmds as f64);
        put("ssd.ndp_commands", self.ndp_cmds as f64);
        put(
            "ssd.blocks_read_per_lookup",
            ratio(self.blocks_read as f64, lookups),
        );
        put(
            "nvme.pcie_bytes_per_lookup",
            ratio(self.pcie_bytes as f64, lookups),
        );
        put(
            "nvme.pcie_busy_share",
            ratio(self.pcie_busy_ns as f64, sim_ns * self.systems as f64),
        );
        put("nvme.pcie_transfers", self.pcie_xfers as f64);
        put("ftl.host_reads", self.host_reads as f64);
        put("ftl.cache_hit_rate", self.ftl_cache.hit_rate());
        put("ftl.fw_busy_share", busy_share(&self.fw_busy_ns));
        put("ftl.engine_busy_share", busy_share(&self.engine_busy_ns));
        put(
            "ftl.engine_busy_max_over_mean",
            ratio(
                max(self.engine_busy_ns.iter().copied()),
                mean(&self.engine_busy_ns),
            ),
        );
        put("ftl.gc_relocated_pages", self.gc_pages as f64);
        put("flash.reads", self.flash_reads.iter().sum());
        put("flash.programs", self.flash_programs as f64);
        put("flash.channel_util_mean", mean(&chan_util));
        put("flash.channel_util_max", max(chan_util.iter().copied()));
        put(
            "flash.channel_util_max_over_mean",
            ratio(max(chan_util.iter().copied()), mean(&chan_util)),
        );
        put(
            "flash.shard_reads_max_over_mean",
            ratio(
                max(self.flash_reads.iter().copied()),
                mean(&self.flash_reads),
            ),
        );
        put("flash.op_latency_p99_us", self.op_p99_us);
        put("flash.fault.transient", self.transient as f64);
        put("flash.fault.uncorrectable", self.uncorrectable as f64);
        out
    }
}

/// Spans written to a workload's trace file. The ledger uses every span;
/// the file keeps the earliest ones (spans arrive sorted by start time),
/// about 40 MB of JSON, which Perfetto still opens.
const TRACE_FILE_SPANS: usize = 300_000;

/// Chrome-trace JSON of the head of `spans`.
pub fn trace_file(spans: &[SpanRec]) -> String {
    recssd_obs::chrome_trace_json(&spans[..spans.len().min(TRACE_FILE_SPANS)])
}

/// Span names that are host software running on a `System`.
const HOST_SW_SPANS: [&str; 4] = ["base:plan", "ndp:plan", "ndp:gather", "ndp:merge"];

/// Length of the union of `ivs` (sorted in place).
fn union_ns(ivs: &mut [(u64, u64)]) -> u64 {
    ivs.sort_unstable();
    let (mut total, mut end) = (0, 0);
    for &(s, e) in ivs.iter() {
        if e > end {
            total += e - s.max(end);
            end = e;
        }
    }
    total
}

/// `obs.util.*`: how busy each simulated resource class was at its
/// busiest instance, from the program's spans. The four device classes
/// come from `bottleneck_report`; host software, which it does not rank,
/// is the union of the host-side planning and merge spans per system.
pub fn util_ledger(spans: &[SpanRec]) -> Metrics {
    let bn = recssd_obs::bottleneck_report(spans);
    let util = |prefix: &str| {
        max(bn
            .ranked
            .iter()
            .filter(|r| r.resource.starts_with(prefix))
            .map(|r| r.utilization()))
    };
    let mut host: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if HOST_SW_SPANS.contains(&s.name) {
            host.entry(s.pid).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let host_cpu = max(host
        .values_mut()
        .map(|ivs| ratio(union_ns(ivs) as f64, bn.elapsed_ns as f64)));
    vec![
        ("obs.util.fw_core_max".into(), util("fw:core")),
        ("obs.util.fw_engine_max".into(), util("fw:engine")),
        ("obs.util.flash_max".into(), util("flash[")),
        ("obs.util.host_cpu_max".into(), host_cpu),
        ("obs.util.tier_dram".into(), util("tier:dram")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        let mut ivs = vec![(10, 20), (0, 5), (15, 30), (30, 31)];
        assert_eq!(union_ns(&mut ivs), 5 + 20 + 1);
    }
}
