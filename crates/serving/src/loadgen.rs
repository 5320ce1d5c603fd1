//! Closed- and open-loop load generation against the serving runtime.
//!
//! The generator produces Zipf-skewed lookup batches over the runtime's
//! registered tables (one decorrelated [`ZipfTrace`] per table, matching
//! the power-law access patterns of §3.1 of the paper) and drives the
//! runtime either *open-loop* — arrivals from an [`ArrivalProcess`],
//! regardless of how backed up the system is, the configuration that
//! exposes latency tails — or *closed-loop* — a fixed population of
//! clients, each issuing its next request when the previous one completes,
//! the configuration that measures saturated throughput.

use recssd::LookupBatch;
use recssd_sim::stats::Quantiles;
use recssd_sim::{SimDuration, SimTime};
use recssd_trace::{ArrivalProcess, RowStream, ZipfTrace};

use crate::{CompletedRequest, ServedTableId, ServingRuntime, SlsPath};

/// Shape of each generated request.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Output (pooled) vectors per request.
    pub outputs: usize,
    /// Lookups summed into each output.
    pub lookups_per_output: usize,
    /// Zipf skew exponent of row popularity (must exceed 1).
    pub zipf_exponent: f64,
}

impl TrafficSpec {
    /// Lookups per request.
    pub fn lookups_per_request(&self) -> usize {
        self.outputs * self.lookups_per_output
    }
}

/// How requests are paced.
#[derive(Debug)]
pub enum LoadMode {
    /// Arrivals from the given process, independent of completions.
    Open(ArrivalProcess),
    /// `clients` concurrent issuers; each submits its next request
    /// `think` after its previous one completes.
    Closed {
        /// Concurrent client population.
        clients: usize,
        /// Per-client think time between completion and next request.
        think: SimDuration,
    },
}

/// Summary of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed.
    pub requests: u64,
    /// Lookups completed.
    pub lookups: u64,
    /// First arrival → last completion.
    pub makespan: SimDuration,
    /// Completed lookups per simulated second.
    pub lookups_per_sim_sec: f64,
    /// Mean sub-batches per dispatched device operator.
    pub batching_factor: f64,
    /// Queueing-latency quantiles (ns).
    pub queue: Quantiles,
    /// Service-latency quantiles (ns).
    pub service: Quantiles,
    /// End-to-end latency quantiles (ns).
    pub e2e: Quantiles,
    /// Requests verified bit-identical to `sls_reference`.
    pub verified: u64,
    /// Time-averaged in-flight operator count per shard (pipelining
    /// shows up as values above 1; see
    /// [`crate::ServingRuntime::shard_occupancy`]).
    pub occupancy: Vec<f64>,
    /// Mean flash channel-bus busy fraction per shard (see
    /// [`crate::ServingRuntime::channel_utilisation`]).
    pub channel_util: Vec<f64>,
    /// Fraction of placed-table lookups absorbed by the host DRAM tier
    /// (0 when the runtime serves no placed tables).
    pub tier_hit_rate: f64,
    /// Lookups the DRAM tier served.
    pub tier_lookups: u64,
    /// Time-averaged in-flight operator count of the DRAM tier.
    pub tier_occupancy: f64,
    /// Service-time quantiles of DRAM-tier operators (ns).
    pub tier_service: Quantiles,
    /// Service-time quantiles of device-shard operators (ns) — the other
    /// half of the per-tier latency split.
    pub device_service: Quantiles,
    /// Mean hit rate of the device shards' FTL page caches over the run —
    /// the counter frequency-ordered cold-tail packing is meant to raise.
    pub ftl_cache_hit_rate: f64,
    /// Mean resident fraction of the FTL page caches.
    pub ftl_cache_occupancy: f64,
    /// Placement-plan refreshes activated during the run (adaptive or
    /// explicit [`crate::ServingRuntime::refresh_placement`] calls).
    pub plan_refreshes: u64,
    /// Rows promoted into the DRAM tier across those refreshes.
    pub rows_promoted: u64,
    /// Rows demoted out of the DRAM tier across those refreshes.
    pub rows_demoted: u64,
    /// Device lookups spent reading promoted rows off flash — the modeled
    /// migration cost.
    pub migration_lookups: u64,
    /// Device operators harvested with a typed device error.
    pub faults: u64,
    /// Failed sub-batches re-queued for another attempt.
    pub retries: u64,
    /// Failed NDP sub-batches re-issued on the baseline path.
    pub fallbacks: u64,
    /// Per-shard circuit-breaker trips.
    pub breaker_trips: u64,
    /// Requests served degraded (missing rows explicitly flagged).
    pub degraded: u64,
    /// Lookups dropped from degraded requests.
    pub missing_lookups: u64,
}

impl LoadReport {
    /// Mean operator occupancy across shards.
    pub fn mean_occupancy(&self) -> f64 {
        mean(&self.occupancy)
    }

    /// Mean channel utilisation across shards.
    pub fn mean_channel_util(&self) -> f64 {
        mean(&self.channel_util)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The closed-/open-loop generator. One instance drives one run.
#[derive(Debug)]
pub struct LoadGen {
    mode: LoadMode,
    spec: TrafficSpec,
    tables: Vec<ServedTableId>,
    traces: Vec<RowStream>,
    next_table: usize,
    /// Verify every `n`-th completion against the unsharded reference
    /// (0 disables).
    verify_every: u64,
}

impl LoadGen {
    /// Creates a generator over `tables` (round-robin), with one
    /// decorrelated Zipf stream per table.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the spec is degenerate.
    pub fn new(
        rt: &ServingRuntime,
        tables: Vec<ServedTableId>,
        spec: TrafficSpec,
        mode: LoadMode,
        seed: u64,
    ) -> Self {
        assert!(!tables.is_empty(), "need at least one table");
        assert!(
            spec.outputs > 0 && spec.lookups_per_output > 0,
            "degenerate traffic spec"
        );
        let traces = tables
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let rows = rt.shard_map(t).rows();
                RowStream::Zipf(ZipfTrace::new(
                    rows,
                    spec.zipf_exponent,
                    seed.wrapping_add(i as u64 * 7919),
                ))
            })
            .collect();
        LoadGen {
            mode,
            spec,
            tables,
            traces,
            next_table: 0,
            verify_every: 0,
        }
    }

    /// Replaces the per-table id streams (one per table, in table order)
    /// — how drifting-skew traffic ([`recssd_trace::DriftingZipf`]) is
    /// driven through the generator.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the table count.
    pub fn with_streams(mut self, streams: Vec<RowStream>) -> Self {
        assert_eq!(
            streams.len(),
            self.tables.len(),
            "one stream per table required"
        );
        self.traces = streams;
        self
    }

    /// Verifies every `n`-th completed request bit-matches the unsharded
    /// `sls_reference` (0 disables; 1 verifies everything).
    pub fn with_verify_every(mut self, n: u64) -> Self {
        self.verify_every = n;
        self
    }

    fn next_batch(&mut self) -> (ServedTableId, LookupBatch) {
        let i = self.next_table;
        self.next_table = (self.next_table + 1) % self.tables.len();
        let trace = &mut self.traces[i];
        let batch = LookupBatch::new(
            (0..self.spec.outputs)
                .map(|_| {
                    (0..self.spec.lookups_per_output)
                        .map(|_| trace.next_id())
                        .collect()
                })
                .collect(),
        );
        (self.tables[i], batch)
    }

    fn submit(&mut self, rt: &mut ServingRuntime, at: SimTime, client: u64, path: SlsPath) {
        let (table, batch) = self.next_batch();
        rt.submit_at(at, client, table, batch, path);
    }

    /// Issues `total_requests` over `path`, drives the runtime to
    /// completion and reports throughput plus latency quantiles. Runtime
    /// statistics are reset at the start so the report covers exactly this
    /// run.
    pub fn run(
        &mut self,
        rt: &mut ServingRuntime,
        path: SlsPath,
        total_requests: usize,
    ) -> LoadReport {
        rt.reset_stats();
        let mut verified = 0u64;
        let mut completed = 0u64;
        let start = rt.now();

        match &mut self.mode {
            LoadMode::Open(arrivals) => {
                let mut at = start;
                let mut times = Vec::with_capacity(total_requests);
                for _ in 0..total_requests {
                    at += arrivals.next_gap();
                    times.push(at);
                }
                for at in times {
                    self.submit(rt, at, 0, path);
                }
                while let Some(done) = rt.step().expect("serving runtime invariant violated") {
                    completed += 1;
                    verified += self.finish(rt, done);
                }
            }
            LoadMode::Closed { clients, think } => {
                let (clients, think) = (*clients, *think);
                // Exactly `total_requests` are issued: a population larger
                // than the request budget simply leaves some clients idle.
                let issue = total_requests;
                for c in 0..clients.min(issue) {
                    self.submit(rt, start, c as u64, path);
                }
                let mut issued = clients.min(issue);
                while let Some(done) = rt.step().expect("serving runtime invariant violated") {
                    completed += 1;
                    let client = done.client;
                    let next_at = done.finish + think;
                    verified += self.finish(rt, done);
                    if issued < issue {
                        self.submit(rt, next_at, client, path);
                        issued += 1;
                    }
                }
            }
        }
        assert_eq!(completed, rt.stats().requests.get(), "lost completions");

        let occupancy = rt.shard_occupancy();
        let channel_util = rt.channel_utilisation();
        let tier_occupancy = rt.tier_occupancy();
        let ftl = rt.ftl_cache_stats();
        let ftl_cache_hit_rate = {
            let (hits, accesses) = ftl
                .iter()
                .fold((0u64, 0u64), |(h, a), s| (h + s.hits(), a + s.accesses()));
            if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            }
        };
        let ftl_cache_occupancy = mean(&rt.ftl_cache_occupancy());
        let stats = rt.stats();
        LoadReport {
            requests: stats.requests.get(),
            lookups: stats.lookups.get(),
            makespan: stats.makespan(),
            lookups_per_sim_sec: stats.lookups_per_sim_sec(),
            batching_factor: stats.batching_factor(),
            queue: stats.queue.quantiles(),
            service: stats.service.quantiles(),
            e2e: stats.e2e.quantiles(),
            verified,
            occupancy,
            channel_util,
            tier_hit_rate: stats.tier_hit_rate(),
            tier_lookups: stats.tier.hits(),
            tier_occupancy,
            tier_service: stats.tier_service.quantiles(),
            device_service: stats.device_service.quantiles(),
            ftl_cache_hit_rate,
            ftl_cache_occupancy,
            plan_refreshes: stats.plan_refreshes.get(),
            rows_promoted: stats.rows_promoted.get(),
            rows_demoted: stats.rows_demoted.get(),
            migration_lookups: stats.migration_lookups.get(),
            faults: stats.faults.get(),
            retries: stats.retries.get(),
            fallbacks: stats.fallbacks.get(),
            breaker_trips: stats.breaker_trips.get(),
            degraded: stats.degraded.get(),
            missing_lookups: stats.missing_lookups.get(),
        }
    }

    /// Optional verification + buffer recycling for one completion.
    fn finish(&mut self, rt: &mut ServingRuntime, done: CompletedRequest) -> u64 {
        let verify = self.verify_every > 0 && done.id.0.is_multiple_of(self.verify_every);
        if verify {
            rt.verify_bitmatch(&done);
        }
        rt.recycle_output(done.outputs);
        u64::from(verify)
    }
}
