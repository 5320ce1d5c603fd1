//! Per-request latency telemetry of the serving runtime.
//!
//! [`ServingStats`] is a plain struct of [`recssd_sim::stats`] values —
//! the vocabulary every device layer uses — so two runs' statistics
//! compare with `==` and a reset one equals [`ServingStats::default`].

use recssd_sim::stats::{Counter, HitStats, LogHistogram, Quantiles};
use recssd_sim::{SimDuration, SimTime};

use crate::SlsPath;

/// Dense index of a [`SlsPath`] into the per-path attribution array.
fn path_index(path: SlsPath) -> usize {
    match path {
        SlsPath::Dram => 0,
        SlsPath::Baseline(_) => 1,
        SlsPath::Ndp(_) => 2,
    }
}

/// Latency attribution of one serving path: where a request's time goes,
/// split into queueing (arrival → first sub-batch starts service) and
/// service (first start → last shard finished), as quantile summaries.
#[derive(Debug, Clone)]
pub struct PathAttribution {
    /// Path label ([`SlsPath::name`]).
    pub path: &'static str,
    /// Requests completed on this path.
    pub requests: u64,
    /// Arrival → first service start.
    pub queue: Quantiles,
    /// First service start → completion.
    pub service: Quantiles,
    /// Arrival → completion.
    pub e2e: Quantiles,
}

/// Aggregate serving statistics: request latency decomposed into queueing
/// (arrival → first sub-batch starts service) and service (first start →
/// last shard finished), each recorded into an HDR-style histogram so
/// p50/p95/p99/p999 are reportable per run — globally and per serving
/// path ([`ServingStats::attribution`]).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ServingStats {
    /// Arrival → first shard begins serving the request.
    pub queue: LogHistogram,
    /// First service start → last shard partial merged.
    pub service: LogHistogram,
    /// Arrival → completion (queue + service).
    pub e2e: LogHistogram,
    /// Requests completed.
    pub requests: Counter,
    /// Embedding lookups completed.
    pub lookups: Counter,
    /// Device operators dispatched (merged sub-batches count once).
    pub ops_dispatched: Counter,
    /// Sub-batches dispatched (`/ ops_dispatched` = mean batching factor).
    pub subs_dispatched: Counter,
    /// Placement routing of lookups on *placed* tables: a hit is a lookup
    /// served by the host DRAM tier, a miss goes to a device shard.
    /// Unplaced tables never touch these counters.
    pub tier: HitStats,
    /// Service time of DRAM-tier operators (start → finish, per operator).
    pub tier_service: LogHistogram,
    /// Service time of device-shard operators (start → finish, per
    /// operator) — the NDP/baseline/DRAM-path half of the per-tier
    /// latency split.
    pub device_service: LogHistogram,
    /// Placement-plan refreshes *activated* (a refresh counts once its
    /// migration work has drained and new admissions route under it).
    pub plan_refreshes: Counter,
    /// Rows promoted into the DRAM tier across activated refreshes.
    pub rows_promoted: Counter,
    /// Rows demoted out of the DRAM tier across activated refreshes.
    pub rows_demoted: Counter,
    /// Device lookups issued as migration work (reading promoted rows off
    /// flash) — the modeled cost that makes a plan swap not a teleport.
    pub migration_lookups: Counter,
    // --- resilience telemetry ---
    /// Device operators harvested with a typed device error (uncorrectable
    /// media faults; transient faults are absorbed inside the device and
    /// never reach this counter).
    pub faults: Counter,
    /// Failed sub-batches re-queued for another attempt.
    pub retries: Counter,
    /// Failed NDP sub-batches re-issued on the baseline path.
    pub fallbacks: Counter,
    /// Per-shard circuit-breaker trips (closed/half-open → open).
    pub breaker_trips: Counter,
    /// Requests served degraded: completed with at least one missing row
    /// (retry budget exhausted or deadline expiry), explicitly flagged.
    pub degraded: Counter,
    /// Lookups dropped from degraded requests (never silently wrong —
    /// their output slots are flagged missing).
    pub missing_lookups: Counter,
    /// Per-path latency attribution, indexed by [`path_index`].
    paths: [PathLatency; 3],
    first_arrival: Option<SimTime>,
    last_finish: SimTime,
}

/// One serving path's latency histograms.
#[derive(Debug, Default, Clone, PartialEq)]
struct PathLatency {
    /// The path's [`SlsPath::name`], set by the first request recorded on
    /// it since the last reset.
    name: &'static str,
    queue: LogHistogram,
    service: LogHistogram,
    e2e: LogHistogram,
    requests: Counter,
}

impl ServingStats {
    /// Records one completed request (`path` = the path it was submitted
    /// on; tier partials of placed tables still count under it).
    pub(crate) fn record(
        &mut self,
        arrival: SimTime,
        queue: SimDuration,
        service: SimDuration,
        finish: SimTime,
        lookups: u64,
        path: SlsPath,
    ) {
        self.queue.record_duration(queue);
        self.service.record_duration(service);
        self.e2e.record_duration(queue + service);
        self.requests.inc();
        self.lookups.add(lookups);
        let p = &mut self.paths[path_index(path)];
        p.name = path.name();
        p.queue.record_duration(queue);
        p.service.record_duration(service);
        p.e2e.record_duration(queue + service);
        p.requests.inc();
        self.first_arrival = Some(match self.first_arrival {
            Some(t) => t.min(arrival),
            None => arrival,
        });
        self.last_finish = self.last_finish.max(finish);
    }

    /// First request arrival → last request completion.
    pub fn makespan(&self) -> SimDuration {
        match self.first_arrival {
            Some(t0) => self.last_finish.saturating_since(t0),
            None => SimDuration::ZERO,
        }
    }

    /// Completed lookups per simulated second over the makespan (0 if the
    /// makespan is empty).
    pub fn lookups_per_sim_sec(&self) -> f64 {
        let secs = self.makespan().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.lookups.get() as f64 / secs
        }
    }

    /// Mean sub-batches per dispatched operator (1.0 = no coalescing).
    pub fn batching_factor(&self) -> f64 {
        if self.ops_dispatched.get() == 0 {
            0.0
        } else {
            self.subs_dispatched.get() as f64 / self.ops_dispatched.get() as f64
        }
    }

    /// Fraction of placed-table lookups absorbed by the DRAM tier (0 when
    /// no placed table served traffic).
    pub fn tier_hit_rate(&self) -> f64 {
        self.tier.hit_rate()
    }

    /// Per-path "time-goes-where" report: queue/service/e2e quantiles for
    /// each serving path that completed at least one request.
    pub fn attribution(&self) -> Vec<PathAttribution> {
        self.paths
            .iter()
            .filter(|p| p.requests.get() > 0)
            .map(|p| PathAttribution {
                path: p.name,
                requests: p.requests.get(),
                queue: p.queue.quantiles(),
                service: p.service.quantiles(),
                e2e: p.e2e.quantiles(),
            })
            .collect()
    }

    /// Resets all statistics in place (histograms zero their buckets, no
    /// reallocation); afterwards `*self == ServingStats::default()`.
    pub fn reset(&mut self) {
        self.queue.reset();
        self.service.reset();
        self.e2e.reset();
        self.requests.reset();
        self.lookups.reset();
        self.ops_dispatched.reset();
        self.subs_dispatched.reset();
        self.tier.reset();
        self.tier_service.reset();
        self.device_service.reset();
        self.plan_refreshes.reset();
        self.rows_promoted.reset();
        self.rows_demoted.reset();
        self.migration_lookups.reset();
        self.faults.reset();
        self.retries.reset();
        self.fallbacks.reset();
        self.breaker_trips.reset();
        self.degraded.reset();
        self.missing_lookups.reset();
        for p in &mut self.paths {
            p.name = "";
            p.queue.reset();
            p.service.reset();
            p.e2e.reset();
            p.requests.reset();
        }
        self.first_arrival = None;
        self.last_finish = SimTime::ZERO;
    }
}
