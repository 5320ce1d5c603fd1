//! The four serving workloads and the driver they share.
//!
//! Everything here talks to the program through
//! `ServingRuntime::{submit_at, step, recycle_output, verify_bitmatch}`
//! and public getters; the load comes from [`crate::gen`].

use std::time::Instant;

use recssd::{FaultConfig, LookupBatch, SlsOptions};
use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
use recssd_obs::{Phase, SpanRec};
use recssd_placement::{FreqProfiler, PlacementPlan, PlacementPolicy};
use recssd_serving::{
    AdaptivePolicy, CompletedRequest, EnginePoolConfig, ExecMode, MergePlacement, RequestId,
    SchedulePolicy, ServedTableId, ServingConfig, ServingRuntime, SlsPath,
};
use recssd_sim::alloc_count::allocation_count;
use recssd_sim::{SimDuration, SimTime};

use crate::gen::{poisson_gap_ns, Fnv, Rng, Zipf};
use crate::ledger::{max, mean, ratio, trace_file, util_ledger, DeviceLedger, Metrics};
use crate::stats::{backlog_grows, highest_supported_percentile, percentile};

/// What a pass adds to the plain timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Nothing: the run that is timed.
    Timed,
    /// Every completion is checked against `sls_reference`.
    Verified,
    /// Span tracing, self-profiling and the benchmark's own wall spans.
    Traced,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// `add_table`: row order on flash, no DRAM tier.
    Unplaced,
    /// Heat-ordered packing with a hot budget of this row fraction
    /// (`0.0` packs only).
    Fraction(f64),
    /// One global DRAM row budget split across tables.
    GlobalRows(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub enum Load {
    /// `clients` issuers, think time 0, `requests` in total.
    Closed { clients: usize, requests: usize },
    /// Poisson arrivals at each of `rates` (requests/s), `per_rate` each.
    Open {
        rates: &'static [u64],
        per_rate: usize,
        /// The rate whose latency is the workload's p50/p99.
        reference: u64,
        /// p99 limit of a sustainable rate, in simulated µs.
        limit_us: f64,
    },
}

/// One serving workload, fully described.
#[derive(Debug, Clone)]
pub struct Serving {
    pub name: &'static str,
    pub shards: usize,
    pub depth: usize,
    pub policy: SchedulePolicy,
    pub path: SlsPath,
    pub engines: usize,
    pub tables: usize,
    pub rows: u64,
    pub dim: usize,
    pub outputs: usize,
    pub per_output: usize,
    pub zipf: f64,
    pub placement: Placement,
    pub load: Load,
    /// Requests served closed-loop before statistics are reset.
    pub warmup: usize,
    /// Rank→row rotation applied at each of this many phase boundaries.
    pub drift: Option<(usize, f64)>,
    pub adaptive: Option<AdaptivePolicy>,
    pub faults: bool,
}

/// Seed of the rank→row map every table of every serving workload uses:
/// the hot rows of all tables share row indices (and so shards), which is
/// the worst case for row-range sharding, and the same for every `--seed`.
const HOT_MAP_SEED: u64 = 0x0B5E_55ED;

/// Samples per table that feed the placement profile.
const PROFILE_SAMPLES: usize = 100_000;

pub fn ndp_flashwall() -> Serving {
    Serving {
        name: "ndp-flashwall",
        shards: 4,
        depth: 4,
        policy: SchedulePolicy::Fifo,
        path: SlsPath::Ndp(SlsOptions::default()),
        engines: 8,
        tables: 2,
        rows: 2048,
        dim: 1024,
        outputs: 4,
        per_output: 8,
        zipf: 1.2,
        placement: Placement::Unplaced,
        load: Load::Closed {
            clients: 32,
            requests: 10_000,
        },
        warmup: 256,
        drift: None,
        adaptive: None,
        faults: false,
    }
}

pub fn baseline_hostpath() -> Serving {
    Serving {
        name: "baseline-hostpath",
        shards: 2,
        depth: 4,
        policy: SchedulePolicy::Fifo,
        path: SlsPath::Baseline(SlsOptions::default()),
        engines: 0,
        tables: 4,
        rows: 4096,
        dim: 32,
        outputs: 4,
        per_output: 10,
        zipf: 1.2,
        placement: Placement::Fraction(0.0),
        load: Load::Closed {
            clients: 16,
            requests: 10_000,
        },
        warmup: 256,
        drift: None,
        adaptive: None,
        faults: false,
    }
}

pub fn hybrid_tier_open() -> Serving {
    Serving {
        name: "hybrid-tier-open",
        shards: 2,
        depth: 4,
        policy: SchedulePolicy::micro_batch(8),
        path: SlsPath::Ndp(SlsOptions::default()),
        engines: 0,
        tables: 4,
        rows: 8192,
        dim: 32,
        outputs: 4,
        per_output: 10,
        zipf: 1.2,
        placement: Placement::Fraction(0.05),
        load: Load::Open {
            rates: &[5_000, 10_000, 15_000, 20_000, 25_000, 30_000, 40_000],
            per_rate: 12_000,
            reference: 10_000,
            limit_us: 1_750.0,
        },
        warmup: 256,
        drift: None,
        adaptive: None,
        faults: false,
    }
}

pub fn drift_faults() -> Serving {
    Serving {
        name: "drift-faults",
        shards: 2,
        depth: 4,
        policy: SchedulePolicy::micro_batch(16),
        path: SlsPath::Ndp(SlsOptions::default()),
        engines: 0,
        tables: 4,
        rows: 4096,
        dim: 32,
        outputs: 4,
        per_output: 10,
        zipf: 1.5,
        placement: Placement::GlobalRows(512),
        load: Load::Closed {
            clients: 48,
            requests: 30_000,
        },
        warmup: 256,
        drift: Some((4, 0.35)),
        adaptive: Some(AdaptivePolicy {
            epoch_requests: 96,
            decay: 0.8,
            budget_rows: 512,
            min_hit_gain: 0.03,
        }),
        faults: true,
    }
}

impl Serving {
    pub fn lookups_per_request(&self) -> usize {
        self.outputs * self.per_output
    }

    fn zipf_stream(&self, seed: u64, table: usize) -> Zipf {
        Zipf::new(
            self.rows,
            self.zipf,
            HOT_MAP_SEED,
            seed ^ ((table as u64 + 1) * 0x9E37_79B9),
        )
    }

    fn config(&self, exec: ExecMode) -> ServingConfig {
        let mut cfg = ServingConfig::small_wide(self.shards, self.policy)
            .with_depth(self.depth)
            .with_exec(exec);
        if self.engines > 0 {
            cfg.system.ssd.ftl.engines = Some(EnginePoolConfig {
                engines: self.engines,
                rate_pct: 100,
                merge: MergePlacement::FwCore,
            });
        }
        cfg
    }
}

/// The benchmark's request stream: round-robin over tables, one Zipf
/// sampler per table, every generated id folded into `digest`.
#[derive(Debug)]
struct Stream {
    zipfs: Vec<Zipf>,
    next_table: usize,
    outputs: usize,
    per_output: usize,
    issued: usize,
    /// `(requests per phase, rotation)` of the drift workload.
    drift: Option<(usize, f64)>,
    digest: Fnv,
}

impl Stream {
    fn new(w: &Serving, seed: u64, total: usize) -> Self {
        Stream {
            zipfs: (0..w.tables).map(|t| w.zipf_stream(seed, t)).collect(),
            next_table: 0,
            outputs: w.outputs,
            per_output: w.per_output,
            issued: 0,
            drift: w.drift.map(|(phases, rot)| (total.div_ceil(phases), rot)),
            digest: Fnv::default(),
        }
    }

    fn next(&mut self) -> (usize, LookupBatch) {
        if let Some((per_phase, rot)) = self.drift {
            if self.issued > 0 && self.issued.is_multiple_of(per_phase) {
                for z in &mut self.zipfs {
                    z.rotate(rot);
                }
            }
        }
        self.issued += 1;
        let t = self.next_table;
        self.next_table = (t + 1) % self.zipfs.len();
        let z = &mut self.zipfs[t];
        let ids: Vec<Vec<u64>> = (0..self.outputs)
            .map(|_| (0..self.per_output).map(|_| z.next_row()).collect())
            .collect();
        self.digest.write_u64(t as u64);
        for id in ids.iter().flatten() {
            self.digest.write_u64(*id);
        }
        (t, LookupBatch::new(ids))
    }
}

/// Wall time of the benchmark's own calls into the program, by call.
/// Off (no clock reads) except in the traced pass.
#[derive(Debug, Default)]
pub struct OwnSpans {
    on: bool,
    /// `(name, total ns)`.
    totals: Vec<(&'static str, u64)>,
}

impl OwnSpans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        match self.totals.iter_mut().find(|e| e.0 == name) {
            Some(e) => e.1 += ns,
            None => self.totals.push((name, ns)),
        }
        r
    }

    pub fn ns(&self, name: &str) -> u64 {
        self.totals.iter().find(|e| e.0 == name).map_or(0, |e| e.1)
    }
}

/// Latency and completion figures of one rate point (or of the whole
/// closed loop).
#[derive(Debug, Clone, Default)]
pub struct Point {
    /// Offered rate, requests/s (0 for a closed loop).
    pub rate_rps: u64,
    pub sent: u64,
    pub completed: u64,
    pub degraded: u64,
    pub lookups: u64,
    pub missing_lookups: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub sim_s: f64,
    pub backlog_grows: bool,
    /// At least ten samples lie beyond the p99.
    pub p99_supported: bool,
    /// Largest `arrival − scheduled time` seen, ns (open loop).
    pub max_lateness_ns: u64,
}

impl Point {
    pub fn lost(&self) -> u64 {
        self.sent - self.completed
    }

    pub fn lookups_per_sim_s(&self) -> f64 {
        (self.lookups - self.missing_lookups) as f64 / self.sim_s
    }
}

/// What one pass over a serving workload produced.
#[derive(Debug)]
pub struct ServingRun {
    pub setup_s: f64,
    pub wall_s: f64,
    pub input_digest: u64,
    pub digest: u64,
    pub points: Vec<Point>,
    pub sim_lookups_per_s: f64,
    pub sim_p50_us: f64,
    pub sim_p99_us: f64,
    pub sim_max_rate_rps: f64,
    /// Per-layer metrics read through getters (and spans, when traced).
    pub layers: Vec<(String, f64)>,
    /// Chrome-trace JSON of the traced pass.
    pub trace_json: Option<String>,
}

impl ServingRun {
    pub fn total(&self, f: impl Fn(&Point) -> u64) -> u64 {
        self.points.iter().map(f).sum()
    }
}

struct Built {
    rt: ServingRuntime,
    tables: Vec<ServedTableId>,
    placement_ms: f64,
    hot_rows: usize,
    expected_hit: f64,
}

/// Builds the runtime and its tables, placed from a profile of the
/// benchmark's own stream where the workload asks for it.
fn build(w: &Serving, seed: u64, exec: ExecMode) -> Built {
    let mut rt = ServingRuntime::new(&w.config(exec));
    let table = |t: usize| {
        EmbeddingTable::procedural(TableSpec::new(w.rows, w.dim, Quantization::F32), t as u64)
    };
    // Placed tables follow a profile of the benchmark's own stream.
    let t0 = Instant::now();
    let profile = || {
        let mut prof = FreqProfiler::new();
        for t in 0..w.tables {
            let id = prof.add_table(w.rows);
            let mut z = w.zipf_stream(seed, t);
            prof.profile_stream(id, (0..PROFILE_SAMPLES).map(|_| z.next_row()));
        }
        prof
    };
    let plan = match w.placement {
        Placement::Unplaced => None,
        Placement::Fraction(f) => Some(PlacementPlan::build(
            &profile(),
            &PlacementPolicy::hot_fraction(f),
        )),
        Placement::GlobalRows(n) => Some(PlacementPlan::build_global(&profile(), n)),
    };
    let placement_ms = plan
        .as_ref()
        .map_or(0.0, |_| t0.elapsed().as_secs_f64() * 1e3);
    let (hot_rows, expected_hit) = plan.as_ref().map_or((0, 0.0), |p| {
        let hit = p.iter().map(|t| t.expected_hit_rate()).sum::<f64>() / w.tables as f64;
        (p.total_hot_rows(), hit)
    });
    let tables = (0..w.tables)
        .map(|t| match &plan {
            Some(plan) => rt.add_table_placed(table(t), plan.table(t)),
            None => rt.add_table(table(t)),
        })
        .collect();
    if let Some(policy) = &w.adaptive {
        rt.enable_adaptive(policy.clone());
    }
    if w.faults {
        let mut fc = FaultConfig::quiet(seed ^ 0xFA17);
        fc.transient_read_error_rate = 0.01;
        fc.uncorrectable_rate = 0.001;
        fc.stall_rate = 0.005;
        rt.inject_faults(&fc);
    }
    Built {
        rt,
        tables,
        placement_ms,
        hot_rows,
        expected_hit,
    }
}

/// Accumulates completions of one drive.
#[derive(Default)]
struct Acc {
    digest: Fnv,
    lat_ns: Vec<u64>,
    arrivals: Vec<u64>,
    finishes: Vec<u64>,
    point: Point,
}

impl Acc {
    fn take(
        &mut self,
        rt: &mut ServingRuntime,
        done: CompletedRequest,
        pass: Pass,
        own: &mut OwnSpans,
    ) {
        let e2e = done.finish.saturating_since(done.arrival).as_ns();
        self.lat_ns.push(e2e);
        self.arrivals.push(done.arrival.as_ns());
        self.finishes.push(done.finish.as_ns());
        self.point.completed += 1;
        self.point.lookups += done.batch.total_lookups() as u64;
        self.point.missing_lookups += done.missing_lookups;
        self.point.degraded += u64::from(done.is_degraded());
        own.time("digest", || {
            self.digest.write_u64(done.id.0);
            self.digest.write_u64(done.finish.as_ns());
            self.digest.write_u64(done.missing_lookups);
            for (slot, &missing) in done.missing_slots.iter().enumerate() {
                self.digest.write_u64((slot as u64) << 1 | missing as u64);
            }
            self.digest.write_f32s(done.outputs.as_slice());
        });
        if pass == Pass::Verified {
            own.time("verify_bitmatch", || rt.verify_bitmatch(&done));
        }
        own.time("recycle_output", || rt.recycle_output(done.outputs));
    }

    fn finish(mut self, rate_rps: u64, start_ns: u64) -> (Point, Fnv) {
        self.lat_ns.sort_unstable();
        let last = self.finishes.iter().copied().max().unwrap_or(start_ns);
        self.point.rate_rps = rate_rps;
        self.point.p50_us = percentile(&self.lat_ns, 50.0) as f64 / 1e3;
        self.point.p99_us = percentile(&self.lat_ns, 99.0) as f64 / 1e3;
        self.point.p99_supported =
            highest_supported_percentile(self.lat_ns.len(), &[50.0, 99.0]) == Some(99.0);
        self.point.sim_s = (last - start_ns) as f64 / 1e9;
        if rate_rps > 0 {
            self.arrivals.sort_unstable();
            self.finishes.sort_unstable();
            self.point.backlog_grows = backlog_grows(&self.arrivals, &self.finishes);
        }
        (self.point, self.digest)
    }
}

/// One stream of requests driven through the runtime of `b`.
struct Driver<'a> {
    b: &'a mut Built,
    w: &'a Serving,
    stream: Stream,
    pass: Pass,
    own: OwnSpans,
    /// Allocation events inside the benchmark's own generator.
    gen_allocs: u64,
}

impl Driver<'_> {
    fn submit(&mut self, at: SimTime, client: u64) -> RequestId {
        let a0 = allocation_count();
        let stream = &mut self.stream;
        let (t, batch) = self.own.time("generate", || stream.next());
        self.gen_allocs += allocation_count() - a0;
        let (rt, table, path) = (&mut self.b.rt, self.b.tables[t], self.w.path);
        self.own
            .time("submit_at", || rt.submit_at(at, client, table, batch, path))
    }

    fn step(&mut self) -> Option<CompletedRequest> {
        let rt = &mut self.b.rt;
        self.own
            .time("step", || rt.step())
            .expect("serving runtime invariant violated")
    }

    /// Closed loop: every client submits its next request `think` after
    /// its previous one completes.
    fn closed(&mut self, clients: usize, total: usize, think: SimDuration) -> (Point, Fnv) {
        let start = self.b.rt.now();
        let mut acc = Acc::default();
        let mut issued = clients.min(total);
        for c in 0..issued {
            self.submit(start, c as u64);
        }
        while let Some(done) = self.step() {
            let (client, at) = (done.client, done.finish + think);
            acc.take(&mut self.b.rt, done, self.pass, &mut self.own);
            if issued < total {
                self.submit(at, client);
                issued += 1;
            }
        }
        acc.point.sent = issued as u64;
        acc.finish(0, start.as_ns())
    }

    /// Open loop: arrivals pre-scheduled in simulated time, independent
    /// of completions; latency runs from the scheduled arrival.
    fn open(&mut self, rate: u64, total: usize, seed: u64) -> (Point, Fnv) {
        let start = self.b.rt.now().as_ns();
        let mut acc = Acc::default();
        let mut rng = Rng::new(seed ^ rate);
        let mut at = start;
        let mut scheduled = Vec::with_capacity(total);
        let mut first_id = None;
        for _ in 0..total {
            at += poisson_gap_ns(&mut rng, rate as f64);
            let id = self.submit(SimTime::from_ns(at), 0);
            self.stream.digest.write_u64(at - start);
            first_id.get_or_insert(id.0);
            scheduled.push(at);
        }
        let first_id = first_id.expect("an open-loop point sends requests");
        while let Some(done) = self.step() {
            let due = scheduled[(done.id.0 - first_id) as usize];
            let late = done.arrival.as_ns() - due;
            acc.point.max_lateness_ns = acc.point.max_lateness_ns.max(late);
            acc.take(&mut self.b.rt, done, self.pass, &mut self.own);
        }
        acc.point.sent = total as u64;
        acc.finish(rate, scheduled[0])
    }
}

/// One pass over `w`: set-up, the timed section, then the ledger.
pub fn run(w: &Serving, seed: u64, pass: Pass, process_start: Option<Instant>) -> ServingRun {
    run_with(w, seed, pass, ExecMode::Sequential, false, process_start)
}

/// As [`run`], under `exec`. With `think_horizon` every closed-loop
/// client thinks for the runtime's sync horizon, the fastest feedback
/// the parallel stepper accepts.
pub fn run_with(
    w: &Serving,
    seed: u64,
    pass: Pass,
    exec: ExecMode,
    think_horizon: bool,
    process_start: Option<Instant>,
) -> ServingRun {
    let t_setup = process_start.unwrap_or_else(Instant::now);
    let mut b = build(w, seed, exec);
    let think = if think_horizon {
        b.rt.sync_horizon()
    } else {
        SimDuration::ZERO
    };
    if pass == Pass::Traced {
        b.rt.enable_tracing();
        b.rt.enable_self_profiling();
    }
    let total = match &w.load {
        Load::Closed { requests, .. } => *requests,
        Load::Open {
            rates, per_rate, ..
        } => rates.len() * per_rate,
    };
    // The warm-up draws from a stream of its own, so the timed stream (and
    // its digest) is the same whatever the warm-up length.
    let mut warm = Stream::new(w, seed ^ 0x57A2_7000, w.warmup);
    warm.drift = None;
    Driver {
        b: &mut b,
        w,
        stream: warm,
        pass: Pass::Timed,
        own: OwnSpans::default(),
        gen_allocs: 0,
    }
    .closed(16, w.warmup, think);
    if pass == Pass::Traced {
        // Spans of the warm-up would skew every share; start clean.
        b.rt.take_trace();
    }
    b.rt.reset_stats();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut d = Driver {
        b: &mut b,
        w,
        stream: Stream::new(w, seed, total),
        pass,
        own: OwnSpans {
            on: pass == Pass::Traced,
            ..OwnSpans::default()
        },
        gen_allocs: 0,
    };
    let a0 = allocation_count();
    let t0 = Instant::now();
    let mut digest = Fnv::default();
    let mut points = Vec::new();
    let drives: Vec<(Point, Fnv)> = match &w.load {
        Load::Closed { clients, requests } => vec![d.closed(*clients, *requests, think)],
        Load::Open {
            rates, per_rate, ..
        } => rates.iter().map(|&r| d.open(r, *per_rate, seed)).collect(),
    };
    for (p, fold) in drives {
        digest.write_u64(fold.0);
        points.push(p);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = allocation_count() - a0 - d.gen_allocs;
    let (own, input_digest) = (d.own, d.stream.digest.0);

    let (sim_lookups_per_s, sim_p50_us, sim_p99_us, sim_max_rate_rps) = match &w.load {
        Load::Closed { .. } => {
            let p = &points[0];
            (
                p.lookups_per_sim_s(),
                p.p50_us,
                p.p99_us,
                p.completed as f64 / p.sim_s,
            )
        }
        Load::Open {
            reference,
            limit_us,
            ..
        } => {
            let at = |r: u64| points.iter().find(|p| p.rate_rps == r).expect("rate point");
            let top = points.last().expect("rate points");
            let max_rate = points
                .iter()
                .filter(|p| p.p99_us <= *limit_us && !p.backlog_grows && p.lost() == 0)
                .map(|p| p.rate_rps)
                .max()
                .unwrap_or(0);
            (
                top.lookups_per_sim_s(),
                at(*reference).p50_us,
                at(*reference).p99_us,
                max_rate as f64,
            )
        }
    };

    let mut layers = ledger(&mut b.rt, w, total as u64);
    let mut trace_json = None;
    if pass == Pass::Traced {
        let spans = b.rt.take_trace();
        layers.extend(span_ledger(&spans, total as u64));
        layers.extend(wall_ledger(&b.rt, &own, total as u64, wall_s));
        trace_json = Some(trace_file(&spans));
    }
    layers.push(("placement.plan_build_ms".into(), b.placement_ms));
    layers.push(("placement.hot_rows".into(), b.hot_rows as f64));
    layers.push(("placement.expected_hit_rate".into(), b.expected_hit));
    layers.push((
        "simcore.allocs_per_lookup".into(),
        allocs as f64 / (total * w.lookups_per_request()) as f64,
    ));

    ServingRun {
        setup_s,
        wall_s,
        input_digest,
        digest: digest.0,
        points,
        sim_lookups_per_s,
        sim_p50_us,
        sim_p99_us,
        sim_max_rate_rps,
        layers,
        trace_json,
    }
}

/// Per-layer metrics read through public getters after the timed
/// section (counts cover exactly that section: statistics were reset at
/// its start).
fn ledger(rt: &mut ServingRuntime, w: &Serving, requests: u64) -> Metrics {
    let mut out = Metrics::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    let occ = rt.shard_occupancy();
    let tier_occ = rt.tier_occupancy();
    let s = rt.stats();
    let sim_ns = s.makespan().as_ns() as f64;
    let (q, sv, e) = (
        s.queue.quantiles(),
        s.service.quantiles(),
        s.e2e.quantiles(),
    );
    put("serving.requests", s.requests.get() as f64);
    put("serving.lookups", s.lookups.get() as f64);
    put("serving.queue_p50_us", q.p50 as f64 / 1e3);
    put("serving.queue_p99_us", q.p99 as f64 / 1e3);
    put("serving.service_p50_us", sv.p50 as f64 / 1e3);
    put("serving.service_p99_us", sv.p99 as f64 / 1e3);
    put("serving.e2e_p999_us", e.p999 as f64 / 1e3);
    put("serving.batching_factor", s.batching_factor());
    put("serving.shard_occupancy_mean", mean(&occ));
    put(
        "serving.shard_occupancy_max_over_mean",
        ratio(max(occ.iter().copied()), mean(&occ)),
    );
    put("serving.tier_hit_rate", s.tier_hit_rate());
    put("serving.tier_occupancy", tier_occ);
    put("serving.retries", s.retries.get() as f64);
    put("serving.fallbacks", s.fallbacks.get() as f64);
    put("serving.breaker_trips", s.breaker_trips.get() as f64);
    put("serving.degraded", s.degraded.get() as f64);
    put("serving.missing_lookups", s.missing_lookups.get() as f64);
    put("serving.plan_refreshes", s.plan_refreshes.get() as f64);
    put("serving.rows_promoted", s.rows_promoted.get() as f64);
    put(
        "serving.migration_lookups",
        s.migration_lookups.get() as f64,
    );

    let mut dev = DeviceLedger::default();
    for i in 0..rt.shards() {
        dev.add(rt.shard_system_mut(i));
    }
    let lookups = (requests * w.lookups_per_request() as u64) as f64;
    out.extend(dev.finish(sim_ns, lookups));
    out
}

/// Per-layer metrics derived from the program's own spans.
fn span_ledger(spans: &[SpanRec], requests: u64) -> Metrics {
    let mut out = Metrics::new();
    let cp = recssd_obs::critical_path_report(spans);
    let total_e2e: u64 = cp.paths.iter().map(|p| p.total_e2e_ns).sum();
    for ph in Phase::ALL {
        let ns: u64 = cp.paths.iter().map(|p| p.phase_ns[ph.index()]).sum();
        out.push((
            format!("obs.phase.{}_share", ph.name()),
            ratio(ns as f64, total_e2e as f64),
        ));
    }
    out.push(("obs.phase.conservation".into(), cp.min_conservation));
    out.extend(util_ledger(spans));
    out.push((
        "obs.spans_per_request".into(),
        ratio(spans.len() as f64, requests as f64),
    ));
    let tl = recssd_obs::utilization_timelines(spans, 1_000_000);
    out.push((
        "obs.littles_law_residual_max".into(),
        max(tl.iter().map(|t| t.littles_law_residual())),
    ));
    out
}

/// Where the simulator's own wall time went: the runtime's self-profile
/// and the benchmark's spans around its calls.
fn wall_ledger(
    rt: &ServingRuntime,
    own: &OwnSpans,
    requests: u64,
    wall_s: f64,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let n = requests as f64;
    out.push((
        "serving.wall.submit_ns_per_req".to_string(),
        own.ns("submit_at") as f64 / n,
    ));
    out.push((
        "serving.wall.step_ns_per_req".to_string(),
        own.ns("step") as f64 / n,
    ));
    let prof = rt.wall_profile();
    let total: u64 = prof.iter().map(|p| p.nanos).sum();
    for p in &prof {
        out.push((
            format!("serving.wall.{}_share", p.phase),
            ratio(p.nanos as f64, total as f64),
        ));
    }
    let wall_ns = wall_s * 1e9;
    out.push((
        "bench.gen_share".to_string(),
        own.ns("generate") as f64 / wall_ns,
    ));
    out.push((
        "bench.verify_share".to_string(),
        (own.ns("digest") + own.ns("verify_bitmatch")) as f64 / wall_ns,
    ));
    out
}

/// The name of the most utilised resource of a traced run, from its
/// `obs.util.*` metrics.
pub fn top_util(layers: &[(String, f64)]) -> &str {
    layers
        .iter()
        .filter(|(k, _)| k.starts_with("obs.util."))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |(k, _)| k.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_digest_is_pinned_per_seed() {
        // 64 requests of `baseline-hostpath`. A change here changes the
        // load of every serving workload: re-measure the baseline.
        let w = baseline_hostpath();
        let digest = |seed| {
            let mut s = Stream::new(&w, seed, 64);
            for _ in 0..64 {
                s.next();
            }
            s.digest.0
        };
        assert_eq!(digest(42), 0xF134_2497_9B88_DA36);
        assert_eq!(digest(43), 0xFA70_24E8_531F_062D);
    }

    #[test]
    fn drift_rotates_at_each_phase_boundary() {
        // 40 requests over 4 phases: requests 11, 21 and 31 open a phase.
        let w = drift_faults();
        let mut drifting = Stream::new(&w, 1, 40);
        let mut steady = Stream::new(&w, 1, 40);
        steady.drift = None;
        let same = |a: &mut Stream, b: &mut Stream| a.next().1 == b.next().1;
        for _ in 0..10 {
            assert!(same(&mut drifting, &mut steady));
        }
        let moved = (10..40)
            .filter(|_| !same(&mut drifting, &mut steady))
            .count();
        assert!(
            moved > 25,
            "only {moved} of 30 requests moved after the rotation"
        );
    }
}
